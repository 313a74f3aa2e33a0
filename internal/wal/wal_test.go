package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"

	"adcache/internal/keys"
	"adcache/internal/vfs"
)

// add writes one record as a group of one: Add, then Flush.
func add(w *Writer, rec Record) error {
	w.Add(rec)
	return w.Flush()
}

func TestAppendReplay(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f)
	for i := 0; i < 100; i++ {
		rec := Record{
			Seq:   uint64(i + 1),
			Kind:  keys.KindSet,
			Key:   []byte(fmt.Sprintf("key%03d", i)),
			Value: []byte(fmt.Sprintf("val%03d", i)),
		}
		if err := add(w, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	g, _ := fs.Open("wal")
	var got []Record
	maxSeq, err := Replay(g, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxSeq != 100 {
		t.Fatalf("maxSeq = %d", maxSeq)
	}
	if len(got) != 100 {
		t.Fatalf("replayed %d records", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) || string(r.Key) != fmt.Sprintf("key%03d", i) ||
			string(r.Value) != fmt.Sprintf("val%03d", i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

func TestDeleteRecords(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f)
	add(w, Record{Seq: 1, Kind: keys.KindDelete, Key: []byte("k")})
	w.Close()
	g, _ := fs.Open("wal")
	Replay(g, func(r Record) error {
		if r.Kind != keys.KindDelete || len(r.Value) != 0 {
			t.Fatalf("record = %+v", r)
		}
		return nil
	})
}

func TestTornTailStopsCleanly(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f)
	for i := 0; i < 10; i++ {
		add(w, Record{Seq: uint64(i + 1), Kind: keys.KindSet, Key: []byte("k"), Value: []byte("v")})
	}
	w.Sync()
	// Simulate a torn write: append garbage that looks like a frame header
	// promising more bytes than exist.
	f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0xff, 0x00, 0x00, 0x00})
	g, _ := fs.Open("wal")
	count := 0
	maxSeq, err := Replay(g, func(Record) error { count++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if count != 10 || maxSeq != 10 {
		t.Fatalf("replayed %d records, maxSeq %d", count, maxSeq)
	}
}

func TestCorruptPayloadStopsCleanly(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f)
	add(w, Record{Seq: 1, Kind: keys.KindSet, Key: []byte("good"), Value: []byte("v")})
	sizeAfterFirst, _ := f.Size()
	add(w, Record{Seq: 2, Kind: keys.KindSet, Key: []byte("bad"), Value: []byte("v")})
	// Corrupt one payload byte of the second record.
	f.WriteAt([]byte{0xFF}, sizeAfterFirst+9)
	g, _ := fs.Open("wal")
	count := 0
	Replay(g, func(Record) error { count++; return nil })
	if count != 1 {
		t.Fatalf("replayed %d records, want 1 (stop at corruption)", count)
	}
}

func TestAppendAfterClose(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f)
	w.Close()
	if err := add(w, Record{Seq: 1}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestEmptyLog(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	maxSeq, err := Replay(f, func(Record) error { t.Fatal("callback on empty log"); return nil })
	if err != nil || maxSeq != 0 {
		t.Fatalf("maxSeq=%d err=%v", maxSeq, err)
	}
}

func TestLargeValues(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f)
	big := make([]byte, 1<<16)
	for i := range big {
		big[i] = byte(i)
	}
	add(w, Record{Seq: 1, Kind: keys.KindSet, Key: []byte("k"), Value: big})
	w.Close()
	g, _ := fs.Open("wal")
	Replay(g, func(r Record) error {
		if len(r.Value) != len(big) || r.Value[1000] != big[1000] {
			t.Fatal("large value mangled")
		}
		return nil
	})
}

// TestGroupIsOneWriteInTheRecordFormat: Add+Flush writes a group of records
// with one Write, in exactly the bytes of the record format — each frame
// crc32c(payload) | len(payload) | payload, little-endian, back to back.
func TestGroupIsOneWriteInTheRecordFormat(t *testing.T) {
	for _, n := range []int{1, 64} {
		cfs := vfs.NewCounting(vfs.NewMem())
		f, _ := cfs.Create("wal")
		w := NewWriter(f)
		var want []byte
		for i := 0; i < n; i++ {
			rec := Record{Seq: uint64(1000 + i), Kind: keys.KindSet, Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte(fmt.Sprintf("value-%d", i))}
			if i%5 == 4 {
				rec.Kind, rec.Value = keys.KindDelete, nil
			}
			w.Add(rec)
			payload := binary.AppendUvarint(nil, rec.Seq)
			payload = append(payload, byte(rec.Kind))
			payload = binary.AppendUvarint(payload, uint64(len(rec.Key)))
			payload = append(payload, rec.Key...)
			payload = binary.AppendUvarint(payload, uint64(len(rec.Value)))
			payload = append(payload, rec.Value...)
			want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
			want = binary.LittleEndian.AppendUint32(want, uint32(len(payload)))
			want = append(want, payload...)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := cfs.Stats.WriteOps.Load(); got != 1 {
			t.Fatalf("group of %d records: %d writes, want 1", n, got)
		}
		got := make([]byte, len(want))
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if size, _ := f.Size(); size != int64(len(want)) || !bytes.Equal(got, want) {
			t.Fatalf("group of %d records: bytes differ from the record format", n)
		}
	}
}
