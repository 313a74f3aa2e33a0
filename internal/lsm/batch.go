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
type Batch struct {
	ops []batchOp
}

type batchOp struct {
	kind  keys.Kind
	key   []byte
	value []byte
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Put queues key=value.
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, batchOp{
		kind:  keys.KindSet,
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
	})
}

// Delete queues a deletion of key.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{
		kind: keys.KindDelete,
		key:  append([]byte(nil), key...),
	})
}

// Len reports the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

// Reset clears the batch for reuse.
func (b *Batch) Reset() { b.ops = b.ops[:0] }

// Apply commits the batch through the group-commit pipeline: the batch's
// operations receive consecutive sequence numbers within whichever write
// group commits them. The batch may be Reset and reused afterwards.
func (d *DB) Apply(b *Batch) error {
	if len(b.ops) == 0 {
		return nil
	}
	// The pipeline retains ops until the group commits; copy the slice
	// header's backing so Reset-and-refill cannot race a slow group.
	return d.commit(append([]batchOp(nil), b.ops...))
}
