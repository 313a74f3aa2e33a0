package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"adcache/internal/keys"
	"adcache/internal/vfs"
)

// fuzzTableEntries is the size of the table FuzzSSTableOpen mutates.
const fuzzTableEntries = 300

// fuzzTable is a small valid table image: fuzzTableEntries keys in
// 256-byte blocks with a Bloom filter, stored raw or with flate.
func fuzzTable(t testing.TB, compression Compression) []byte {
	fs := vfs.NewMem()
	buildTable(t, fs, "t.sst", fuzzTableEntries, WriterOptions{BlockSize: 256, BitsPerKey: 10, Compression: compression})
	f, err := fs.Open("t.sst")
	if err != nil {
		t.Fatal(err)
	}
	size, _ := f.Size()
	img := make([]byte, size)
	if _, err := f.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	return img
}

// FuzzSSTableOpen opens mutated copies of a small valid table — patch is
// XORed in at off, then the image is cut short by cut bytes — and reads all
// of it: NewReader, a full iteration, a Seek and a Get per key. None of it
// may panic, and unless one of them reports an error, everything read must
// be the original table's content: corruption surfaces as an error, never
// as different data. The seed corpus in testdata flips bytes in a data
// block, the index, the filter and the footer's handles, and truncates.
func FuzzSSTableOpen(f *testing.F) {
	imgs := map[bool][]byte{false: fuzzTable(f, CompressionNone), true: fuzzTable(f, CompressionFlate)}
	f.Add(false, uint32(0), []byte{}, uint32(0))
	f.Add(true, uint32(0), []byte{}, uint32(0))
	f.Add(false, uint32(10), []byte{0xff}, uint32(0))
	f.Add(true, uint32(len(imgs[true])-FooterLen+17), []byte{0x80}, uint32(0))
	f.Add(false, uint32(0), []byte{}, uint32(FooterLen+1))
	f.Fuzz(func(t *testing.T, flate bool, off uint32, patch []byte, cut uint32) {
		orig := imgs[flate]
		img := append([]byte(nil), orig...)
		for j, b := range patch {
			img[(int(off)+j)%len(img)] ^= b
		}
		img = img[:len(img)-int(cut%uint32(len(img)+1))]
		fs := vfs.NewMem()
		w, _ := fs.Create("t.sst")
		w.Write(img)
		file, _ := fs.Open("t.sst")

		r, err := NewReader(file, ReaderOptions{})
		if err != nil {
			return
		}
		var failed error
		want := func(i int) (string, string) { return fmt.Sprintf("key%06d", i), fmt.Sprintf("val%06d", i) }
		it, err := r.NewIter(nil)
		if err != nil {
			return
		}
		n := 0
		for ok := it.First(); ok; ok = it.Next() {
			k, v := want(n)
			if failed == nil && (string(it.Key().UserKey()) != k || string(it.Value()) != v) {
				failed = fmt.Errorf("entry %d reads %q=%q, the table holds %q=%q", n, it.Key().UserKey(), it.Value(), k, v)
			}
			n++
		}
		if it.Err() != nil {
			return
		}
		if failed == nil && n != fuzzTableEntries {
			failed = fmt.Errorf("iteration yields %d entries, the table holds %d", n, fuzzTableEntries)
		}
		mid, _ := want(fuzzTableEntries / 2)
		if it.Seek(keys.MakeSearch([]byte(mid), keys.MaxSeq)) && failed == nil && string(it.Key().UserKey()) != mid {
			failed = fmt.Errorf("Seek(%q) lands on %q", mid, it.Key().UserKey())
		}
		if it.Err() != nil {
			return
		}
		var stats ReadStats
		for i := 0; i < fuzzTableEntries; i++ {
			k, v := want(i)
			got, deleted, ok, err := r.Get([]byte(k), keys.MaxSeq, &stats)
			if err != nil {
				return
			}
			if failed == nil && (!ok || deleted || !bytes.Equal(got, []byte(v))) {
				failed = fmt.Errorf("Get(%q) = %q ok=%v deleted=%v", k, got, ok, deleted)
			}
		}
		if failed != nil {
			t.Fatalf("no error reported, but %v", failed)
		}
	})
}

// TestFooterHandlePastEOF is the regression test for the first crash
// FuzzSSTableOpen found: a footer whose index handle claims a length near
// 2^47 made NewReader allocate that much before reading a byte. A handle
// reaching past the end of the file is now corruption.
func TestFooterHandlePastEOF(t *testing.T) {
	img := fuzzTable(t, CompressionNone)
	footer := img[len(img)-FooterLen:]
	binary.LittleEndian.PutUint64(footer[24:], 1<<47) // the index handle's length
	fs := vfs.NewMem()
	w, _ := fs.Create("t.sst")
	w.Write(img)
	f, _ := fs.Open("t.sst")
	if _, err := NewReader(f, ReaderOptions{}); err == nil {
		t.Fatal("NewReader accepted an index block past the end of the file")
	}
}
