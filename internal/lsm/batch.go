package lsm

import (
	"adcache/internal/keys"
)

// Batch accumulates writes to be applied atomically: either every operation
// in the batch becomes durable and visible, or (on a crash mid-commit) the
// WAL's torn-tail handling discards the incomplete suffix and recovery
// keeps none of the later records beyond the first corruption — operations
// within a batch are assigned consecutive sequence numbers and reach the WAL
// in the same device write.
//
// The batch copies every key and value into buffers of its own. Reset
// keeps one as large as everything the batch held, so a batch reused for
// equal-sized work allocates nothing.
type Batch struct {
	ops  []batchOp
	buf  []byte
	size int // key and value bytes queued since Reset
}

// Batch buffer sizes: a fresh batch starts small and doubles up to the
// cap, so a short batch pins a few kilobytes and a long one zeroes little
// more than it holds.
const (
	minBatchBuf = 4 << 10
	maxBatchBuf = 64 << 10
)

type batchOp struct {
	kind  keys.Kind
	key   []byte
	value []byte
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Put queues key=value.
func (b *Batch) Put(key, value []byte) {
	k, v := b.copy(key, value)
	b.ops = append(b.ops, batchOp{kind: keys.KindSet, key: k, value: v})
}

// Delete queues a deletion of key.
func (b *Batch) Delete(key []byte) {
	k, _ := b.copy(key, nil)
	b.ops = append(b.ops, batchOp{kind: keys.KindDelete, key: k})
}

// copy appends key and value to the buffer and returns the copies. A full
// buffer is replaced by a new one; the ops already queued keep pointing
// into the old one, which stays valid, so nothing is moved.
func (b *Batch) copy(key, value []byte) (k, v []byte) {
	n := len(key) + len(value)
	if cap(b.buf)-len(b.buf) < n {
		b.buf = make([]byte, 0, max(min(2*cap(b.buf), maxBatchBuf), n, minBatchBuf))
	}
	b.size += n
	off := len(b.buf)
	b.buf = append(append(b.buf, key...), value...)
	k = b.buf[off : off+len(key) : off+len(key)]
	if len(value) > 0 {
		v = b.buf[off+len(key) : off+n : off+n]
	}
	return k, v
}

// Len reports the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

// Reset clears the batch for reuse.
func (b *Batch) Reset() {
	b.ops = b.ops[:0]
	if b.size > cap(b.buf) {
		b.buf = make([]byte, 0, b.size)
	}
	b.buf, b.size = b.buf[:0], 0
}

// Apply commits the batch through the group-commit pipeline: the batch's
// operations receive consecutive sequence numbers within whichever write
// group commits them. Apply returns only once its group has published or
// failed, and by then the WAL and the memtable hold copies of every
// operation, so the batch may be Reset and reused afterwards.
func (d *DB) Apply(b *Batch) error {
	return d.commit(b.ops)
}
