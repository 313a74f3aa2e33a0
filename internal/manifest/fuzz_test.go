package manifest

import (
	"bytes"
	"testing"
)

// encodeLog is a log image holding edits.
func encodeLog(edits ...*Edit) []byte {
	data := []byte(logMagic)
	for _, e := range edits {
		data = appendFrame(data, e)
	}
	return data
}

// FuzzManifestLog feeds arbitrary bytes to the edit decoder. It must never
// panic; what it returns must be exactly a prefix of the input, re-encoded
// byte for byte from the edits it yields; and a fold of those edits either
// fails or leaves a version that satisfies the level invariants. The seed
// corpus in testdata holds a whole log, torn, damaged and rolled-over logs,
// an overlapping level and a JSON manifest.
func FuzzManifestLog(f *testing.F) {
	snap := State{NextFileNum: 1, Version: NewVersion(7)}.snapshot()
	f.Add([]byte{})
	f.Add([]byte(logMagic))
	f.Add(encodeLog(snap, &Edit{Kind: EditCompaction, Deleted: []DeletedFile{{1, 9}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		edits, n, err := decode(data)
		if n < 0 || n > len(data) {
			t.Fatalf("decode spans %d of %d bytes", n, len(data))
		}
		if n == 0 {
			if len(edits) > 0 {
				t.Fatal("edits decoded from no bytes")
			}
			return
		}
		re := []byte(logMagic)
		for i := range edits {
			re = appendFrame(re, &edits[i])
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encoded edits differ from the %d bytes they came from", n)
		}
		if err == nil && n < len(data) && len(data)-n >= frameHeader {
			// The log ended early without an error: the next frame must be
			// torn or fail its checksum, never an intact one.
			if more, m, _ := decode(append([]byte(logMagic), data[n:]...)); len(more) > 0 || m > len(logMagic) {
				t.Fatal("decode stopped before an intact frame")
			}
		}
		st, err := Fold(edits)
		if err != nil {
			return
		}
		if err := st.Version.check(); err != nil {
			t.Fatalf("fold accepted a broken version: %v", err)
		}
	})
}
