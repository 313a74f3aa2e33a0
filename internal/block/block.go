// Package block implements the on-disk block format shared by SSTable data
// and index blocks.
//
// A block is a sequence of entries followed by a restart-point array and a
// trailing count:
//
//	entry:   shared(varint) unshared(varint) valueLen(varint)
//	         keyDelta[unshared] value[valueLen]
//	...
//	restarts: uint32 × numRestarts   (offsets of entries with shared == 0)
//	numRestarts: uint32
//
// Keys within a block share prefixes with their predecessor except at
// restart points, which anchor binary search. This is the classic
// LevelDB/RocksDB layout.
package block

import (
	"encoding/binary"
	"errors"
)

// DefaultRestartInterval is how many entries share one restart point.
const DefaultRestartInterval = 16

// ErrCorrupt reports a malformed block.
var ErrCorrupt = errors.New("block: corrupt block")

// Builder accumulates sorted entries into the block wire format.
type Builder struct {
	buf             []byte
	restarts        []uint32
	restartInterval int
	counter         int
	lastKey         []byte
	numEntries      int
}

// NewBuilder returns a Builder with the given restart interval
// (DefaultRestartInterval if restartInterval <= 0).
func NewBuilder(restartInterval int) *Builder {
	if restartInterval <= 0 {
		restartInterval = DefaultRestartInterval
	}
	return &Builder{restartInterval: restartInterval}
}

// Add appends an entry. Keys must be added in strictly increasing order as
// seen by the caller's comparator; Builder does not re-check ordering.
func (b *Builder) Add(key, value []byte) {
	shared := 0
	if b.counter < b.restartInterval {
		shared = sharedPrefixLen(b.lastKey, key)
	} else {
		b.restarts = append(b.restarts, uint32(len(b.buf)))
		b.counter = 0
	}
	if len(b.restarts) == 0 {
		b.restarts = append(b.restarts, 0)
	}
	b.buf = binary.AppendUvarint(b.buf, uint64(shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(key)-shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(value)))
	b.buf = append(b.buf, key[shared:]...)
	b.buf = append(b.buf, value...)
	b.lastKey = append(b.lastKey[:0], key...)
	b.counter++
	b.numEntries++
}

// EstimatedSize reports the block size if Finish were called now.
func (b *Builder) EstimatedSize() int {
	return len(b.buf) + 4*len(b.restarts) + 4
}

// Empty reports whether no entries have been added.
func (b *Builder) Empty() bool { return b.numEntries == 0 }

// NumEntries reports how many entries have been added.
func (b *Builder) NumEntries() int { return b.numEntries }

// Finish serializes the block and returns its bytes. The Builder must be
// Reset before reuse.
func (b *Builder) Finish() []byte {
	if len(b.restarts) == 0 {
		b.restarts = append(b.restarts, 0)
	}
	out := b.buf
	for _, r := range b.restarts {
		out = binary.LittleEndian.AppendUint32(out, r)
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.restarts)))
	return out
}

// Reset clears the builder for reuse.
func (b *Builder) Reset() {
	b.buf = b.buf[:0]
	b.restarts = b.restarts[:0]
	b.counter = 0
	b.lastKey = b.lastKey[:0]
	b.numEntries = 0
}

func sharedPrefixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// Compare is the key ordering used by Iter.Seek.
type Compare func(a, b []byte) int

// Iter iterates over a serialized block. A zero Iter must be initialised
// with Init before use; an Iter may be re-initialised any number of times,
// retaining its internal key buffer across blocks so steady-state iteration
// allocates nothing. Iter is not safe for concurrent use.
type Iter struct {
	data        []byte // entries region only
	restarts    []byte // serialized restart array, 4 bytes per restart
	numRestarts int
	cmp         Compare

	offset     int // offset of current entry within data
	nextOffset int
	key        []byte
	value      []byte
	valid      bool
	err        error
}

// NewIter parses a serialized block. cmp must match the order the block was
// built with. Callers on hot paths should hold an Iter and call Init
// instead, which performs no allocation.
func NewIter(data []byte, cmp Compare) (*Iter, error) {
	it := new(Iter)
	if err := it.Init(data, cmp); err != nil {
		return nil, err
	}
	return it, nil
}

// Init points the iterator at a serialized block, replacing any previous
// state. The restart array is indexed directly out of the serialized
// trailing bytes — no per-block slice is materialized — and the iterator's
// key buffer is retained, so re-initialising a warm Iter allocates nothing.
func (i *Iter) Init(data []byte, cmp Compare) error {
	if len(data) < 4 {
		return ErrCorrupt
	}
	numRestarts := int(binary.LittleEndian.Uint32(data[len(data)-4:]))
	restartsEnd := len(data) - 4
	restartsStart := restartsEnd - 4*numRestarts
	if numRestarts <= 0 || restartsStart < 0 {
		return ErrCorrupt
	}
	i.data = data[:restartsStart]
	i.restarts = data[restartsStart:restartsEnd]
	i.numRestarts = numRestarts
	i.cmp = cmp
	i.offset, i.nextOffset = 0, 0
	i.key = i.key[:0]
	i.value = nil
	i.valid = false
	i.err = nil
	return nil
}

// Reset returns the iterator to an empty state, retaining the key buffer so
// a later Init stays allocation-free. Valid reports false and Err reports
// nil until the next Init.
func (i *Iter) Reset() {
	key := i.key[:0]
	*i = Iter{key: key}
}

// restart returns the entry offset of restart point n. Offsets are decoded
// on demand from the serialized array; a malformed offset is reported by the
// bounds checks in decodeAt/restartKey.
func (i *Iter) restart(n int) int {
	return int(binary.LittleEndian.Uint32(i.restarts[4*n:]))
}

// decodeAt decodes the entry at off, extending i.key from the shared prefix
// already present in it. Returns the offset past the entry, or -1 on error.
func (i *Iter) decodeAt(off int) int {
	data := i.data
	if off >= len(data) {
		return -1
	}
	shared, n1 := binary.Uvarint(data[off:])
	if n1 <= 0 {
		i.err = ErrCorrupt
		return -1
	}
	unshared, n2 := binary.Uvarint(data[off+n1:])
	if n2 <= 0 {
		i.err = ErrCorrupt
		return -1
	}
	valLen, n3 := binary.Uvarint(data[off+n1+n2:])
	if n3 <= 0 {
		i.err = ErrCorrupt
		return -1
	}
	keyStart := off + n1 + n2 + n3
	valStart := keyStart + int(unshared)
	end := valStart + int(valLen)
	if int(shared) > len(i.key) || end > len(data) {
		i.err = ErrCorrupt
		return -1
	}
	i.key = append(i.key[:shared], data[keyStart:valStart]...)
	i.value = data[valStart:end]
	return end
}

// First positions the iterator at the first entry.
func (i *Iter) First() bool {
	i.key = i.key[:0]
	i.offset = 0
	end := i.decodeAt(0)
	if end < 0 {
		i.valid = false
		return false
	}
	i.nextOffset = end
	i.valid = true
	return true
}

// Next advances to the following entry.
func (i *Iter) Next() bool {
	if !i.valid {
		return false
	}
	if i.nextOffset >= len(i.data) {
		i.valid = false
		return false
	}
	i.offset = i.nextOffset
	end := i.decodeAt(i.offset)
	if end < 0 {
		i.valid = false
		return false
	}
	i.nextOffset = end
	return true
}

// restartKey returns the key stored inline at entry offset off without
// touching i.key. Restart entries have shared == 0, so the full key is
// present in the serialized bytes and can be compared in place.
func (i *Iter) restartKey(off int) ([]byte, bool) {
	data := i.data
	if off >= len(data) {
		i.err = ErrCorrupt
		return nil, false
	}
	shared, n1 := binary.Uvarint(data[off:])
	if n1 <= 0 || shared != 0 {
		i.err = ErrCorrupt
		return nil, false
	}
	unshared, n2 := binary.Uvarint(data[off+n1:])
	if n2 <= 0 {
		i.err = ErrCorrupt
		return nil, false
	}
	_, n3 := binary.Uvarint(data[off+n1+n2:])
	if n3 <= 0 {
		i.err = ErrCorrupt
		return nil, false
	}
	keyStart := off + n1 + n2 + n3
	keyEnd := keyStart + int(unshared)
	if keyEnd > len(data) {
		i.err = ErrCorrupt
		return nil, false
	}
	return data[keyStart:keyEnd], true
}

// Seek positions the iterator at the first entry with key >= target.
func (i *Iter) Seek(target []byte) bool {
	// Binary search restart points for the last restart whose key <= target.
	// Restart keys are compared in place out of the serialized block, so the
	// search neither copies key bytes nor disturbs i.key.
	lo, hi := 0, i.numRestarts-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		rk, ok := i.restartKey(i.restart(mid))
		if !ok {
			i.valid = false
			return false
		}
		if i.cmp(rk, target) <= 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	// Linear scan from the chosen restart.
	i.key = i.key[:0]
	off := i.restart(lo)
	end := i.decodeAt(off)
	if end < 0 {
		i.valid = false
		return false
	}
	i.offset, i.nextOffset, i.valid = off, end, true
	for i.cmp(i.key, target) < 0 {
		if !i.Next() {
			return false
		}
	}
	return true
}

// Valid reports whether the iterator is positioned at an entry.
func (i *Iter) Valid() bool { return i.valid }

// Key returns the current key. The slice is only valid until the next
// positioning call.
func (i *Iter) Key() []byte { return i.key }

// Value returns the current value, aliasing the block's backing array.
func (i *Iter) Value() []byte { return i.value }

// Err returns the first corruption error encountered, if any.
func (i *Iter) Err() error { return i.err }

// NumEntries counts the entries in a serialized block (for tools/tests).
func NumEntries(data []byte, cmp Compare) (int, error) {
	it, err := NewIter(data, cmp)
	if err != nil {
		return 0, err
	}
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		n++
	}
	if it.Err() != nil {
		return n, it.Err()
	}
	return n, nil
}
