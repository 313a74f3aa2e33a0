package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"adcache/internal/keys"
	"adcache/internal/vfs"
)

// replayBytes replays a log image and returns the records it yields.
func replayBytes(t *testing.T, data []byte) []Record {
	t.Helper()
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	var recs []Record
	if _, err := Replay(f, func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("replay of %d bytes: %v", len(data), err)
	}
	return recs
}

// frames is the log image a Writer makes of recs.
func frames(recs []Record) []byte {
	var w Writer
	for _, r := range recs {
		w.Add(r)
	}
	return w.buf
}

// FuzzWALReplay feeds arbitrary bytes to Replay. It must never panic or
// fail on a memory file; the records it returns must re-encode, byte for
// byte, to a prefix of the input — it decodes nothing a Writer could not
// have written; and replaying the input torn anywhere yields a prefix of
// those records. The seed corpus in testdata holds a whole log, a torn and
// a damaged one, and frames whose checksum holds over a payload a Writer
// never makes.
func FuzzWALReplay(f *testing.F) {
	log := frames([]Record{
		{Seq: 1, Kind: keys.KindSet, Key: []byte("a"), Value: []byte("1")},
		{Seq: 2, Kind: keys.KindDelete, Key: []byte("b")},
		{Seq: 300, Kind: keys.KindSet, Key: []byte("key"), Value: bytes.Repeat([]byte("v"), 200)},
	})
	f.Add([]byte{})
	f.Add(log)
	f.Add(log[:len(log)-3])
	f.Add(append(log[:len(log):len(log)], frame([]byte{0x82, 0x00, byte(keys.KindSet), 1, 'k', 1, 'v'})...))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := replayBytes(t, data)
		if re := frames(recs); !bytes.HasPrefix(data, re) {
			t.Fatalf("%d records re-encode to %d bytes that are not the input's prefix", len(recs), len(re))
		}
		for _, cut := range []int{len(data) / 2, len(data) - 1} {
			if cut < 0 {
				continue
			}
			torn := replayBytes(t, data[:cut])
			if len(torn) > len(recs) {
				t.Fatalf("torn at %d: %d records, the whole log has %d", cut, len(torn), len(recs))
			}
			if !bytes.Equal(frames(torn), frames(recs[:len(torn)])) {
				t.Fatalf("torn at %d: the records differ from the whole log's", cut)
			}
		}
	})
}

// frame is one log frame around payload, checksummed as a Writer would.
func frame(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, crc32.Checksum(payload, crcTable))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	return append(out, payload...)
}

// TestReplayHugeLengthFrame is the regression test for a panic: a frame
// whose checksum holds over a key length past 2^63 slipped through the
// bounds check as a negative int and Replay sliced out of range.
func TestReplayHugeLengthFrame(t *testing.T) {
	huge := binary.AppendUvarint([]byte{1, byte(keys.KindSet)}, 1<<63+5)
	good := frames([]Record{{Seq: 1, Kind: keys.KindSet, Key: []byte("k"), Value: []byte("v")}})
	if recs := replayBytes(t, append(append([]byte(nil), good...), frame(huge)...)); len(recs) != 1 {
		t.Fatalf("replay returned %d records, want the 1 before the bad frame", len(recs))
	}
}

// TestReplayRejectsNonCanonicalFrame is the regression test for frames a
// Writer never makes: a varint with a redundant continuation byte, or bytes
// after the value. Their checksums hold, and Replay used to return them as
// records whose re-encoding differs from the log; now they end the replay
// like any corrupt frame.
func TestReplayRejectsNonCanonicalFrame(t *testing.T) {
	good := frames([]Record{{Seq: 1, Kind: keys.KindSet, Key: []byte("k"), Value: []byte("v")}})
	for name, payload := range map[string][]byte{
		"overlong seq":       {0x82, 0x00, byte(keys.KindSet), 1, 'k', 1, 'v'},
		"overlong key len":   {2, byte(keys.KindSet), 0x81, 0x00, 'k', 1, 'v'},
		"trailing bytes":     {2, byte(keys.KindSet), 1, 'k', 1, 'v', 'x'},
		"no kind":            {2},
		"value past payload": {2, byte(keys.KindSet), 1, 'k', 5, 'v'},
	} {
		recs := replayBytes(t, append(append([]byte(nil), good...), frame(payload)...))
		if len(recs) != 1 {
			t.Errorf("%s: replay returned %d records, want the 1 before the bad frame", name, len(recs))
		}
	}
}
