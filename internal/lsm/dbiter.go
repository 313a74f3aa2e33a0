package lsm

import "time"

// Iterator is a forward iterator over the live keys of a consistent
// snapshot of the database. It pins the version it was created against, so
// concurrent flushes and compactions cannot invalidate it; Close releases
// the pin. Iterators read blocks through the block cache but bypass result
// caches (result caches serve materialised query results, not streams) —
// the same division RocksDB draws for its row cache.
//
// Iterators are not safe for concurrent use.
type Iterator struct {
	db     *DB
	handle *versionHandle
	rs     *readState // the iterator stack; returned to the pool by Close
	vi     *visibleIter
	start  time.Time
	closed bool
}

// NewIter returns an iterator over a snapshot of the database taken now.
func (d *DB) NewIter() (*Iterator, error) {
	start := time.Now()
	snap, err := d.pinSnapshot()
	if err != nil {
		return nil, err
	}
	rs := d.getReadState()
	return &Iterator{
		db: d, handle: snap.h, rs: rs, start: start,
		vi: d.buildIter(rs, &snap, nil, nil),
	}, nil
}

// First positions at the smallest live key.
func (it *Iterator) First() bool {
	if it.closed {
		return false
	}
	return it.skipDeleted(it.vi.First())
}

// SeekGE positions at the first live key >= target.
func (it *Iterator) SeekGE(target []byte) bool {
	if it.closed {
		return false
	}
	return it.skipDeleted(it.vi.SeekGE(target))
}

// Next advances to the next live key.
func (it *Iterator) Next() bool {
	if it.closed {
		return false
	}
	return it.skipDeleted(it.vi.Next())
}

// skipDeleted moves past tombstones.
func (it *Iterator) skipDeleted(ok bool) bool {
	for ok && it.vi.Deleted() {
		ok = it.vi.Next()
	}
	return ok
}

// Valid reports whether the iterator is positioned at a live entry.
func (it *Iterator) Valid() bool { return !it.closed && it.vi.Valid() }

// Key returns the current user key; stable until the next positioning call.
func (it *Iterator) Key() []byte { return it.vi.UserKey() }

// Value returns the current value; stable until the next positioning call.
func (it *Iterator) Value() []byte { return it.vi.Value() }

// Err returns the first error the iterator encountered.
func (it *Iterator) Err() error { return it.vi.Err() }

// Close releases the snapshot pin and records the iterator's lifetime as
// one scan in lsm_scan_nanos. It is safe to call twice; no other method may
// be called after it.
func (it *Iterator) Close() {
	if it.closed {
		return
	}
	it.closed = true
	it.db.putReadState(it.rs)
	it.db.releaseVersion(it.handle)
	it.db.metrics.scanNanos.ObserveSince(it.start)
}
