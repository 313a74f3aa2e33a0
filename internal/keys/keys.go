// Package keys defines the internal key encoding shared by the MemTable,
// SSTables and merging iterators.
//
// An internal key is a user key followed by an 8-byte little-endian trailer
// packing a 56-bit sequence number and an 8-bit kind. Internal keys sort by
// user key ascending, then by sequence number descending (newer first), then
// by kind descending. This matches the RocksDB/LevelDB convention and lets a
// reader find the newest visible version of a key with a single seek.
package keys

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// KV is a user key with its value: one pair of a scan result, as the engine
// returns it, a cache strategy receives it and the range cache admits it.
type KV struct {
	Key   []byte
	Value []byte
}

// Kind describes what an internal key represents.
type Kind uint8

const (
	// KindDelete marks a tombstone.
	KindDelete Kind = 0
	// KindSet marks a normal value.
	KindSet Kind = 1
)

// MaxSeq is the largest representable sequence number.
const MaxSeq uint64 = (1 << 56) - 1

// TrailerLen is the number of bytes appended to a user key.
const TrailerLen = 8

// InternalKey is an encoded internal key: user key + trailer.
type InternalKey []byte

// Make encodes an internal key from its parts.
func Make(userKey []byte, seq uint64, kind Kind) InternalKey {
	ik := make([]byte, len(userKey)+TrailerLen)
	copy(ik, userKey)
	binary.LittleEndian.PutUint64(ik[len(userKey):], (seq<<8)|uint64(kind))
	return ik
}

// MakeSearch returns the internal key that sorts before every version of
// userKey visible at snapshot seq; seeking to it finds the newest visible
// version.
func MakeSearch(userKey []byte, seq uint64) InternalKey {
	return Make(userKey, seq, KindSet)
}

// AppendSearch appends the search key for (userKey, seq) to dst and returns
// the extended slice. Passing dst[:0] of a retained buffer makes repeated
// seeks allocation-free once the buffer has grown to the working key size.
func AppendSearch(dst, userKey []byte, seq uint64) []byte {
	dst = append(dst, userKey...)
	return binary.LittleEndian.AppendUint64(dst, (seq<<8)|uint64(KindSet))
}

// UserKey returns the user-key prefix of ik.
func (ik InternalKey) UserKey() []byte { return ik[:len(ik)-TrailerLen] }

// Seq returns the sequence number.
func (ik InternalKey) Seq() uint64 {
	return binary.LittleEndian.Uint64(ik[len(ik)-TrailerLen:]) >> 8
}

// Kind returns the kind.
func (ik InternalKey) Kind() Kind {
	return Kind(binary.LittleEndian.Uint64(ik[len(ik)-TrailerLen:]) & 0xff)
}

// Valid reports whether ik is long enough to carry a trailer.
func (ik InternalKey) Valid() bool { return len(ik) >= TrailerLen }

// String renders the key for debugging.
func (ik InternalKey) String() string {
	if !ik.Valid() {
		return fmt.Sprintf("invalid:%x", []byte(ik))
	}
	return fmt.Sprintf("%q#%d,%d", ik.UserKey(), ik.Seq(), ik.Kind())
}

// Compare orders internal keys: user key ascending, then trailer descending
// (higher sequence numbers — newer entries — sort first).
func Compare(a, b InternalKey) int {
	if c := bytes.Compare(a.UserKey(), b.UserKey()); c != 0 {
		return c
	}
	ta := binary.LittleEndian.Uint64(a[len(a)-TrailerLen:])
	tb := binary.LittleEndian.Uint64(b[len(b)-TrailerLen:])
	switch {
	case ta > tb:
		return -1
	case ta < tb:
		return 1
	default:
		return 0
	}
}
