package lsm

import (
	"time"

	"adcache/internal/keys"
	"adcache/internal/manifest"
	"adcache/internal/memtable"
	"adcache/internal/sstable"
)

// flushWorker is the background flush/compaction goroutine (absent with
// Options.InlineCompaction). Each wake-up drains the immutable-memtable
// queue, compacting after every flush so L0 never accumulates past its
// trigger between flushes — the stall triggers then only fire when writers
// genuinely outpace this worker. Failures feed the error handler: transient
// ones are retried here with capped exponential backoff, corruption parks
// the DB in read-only mode until Resume (see errhandler.go).
func (d *DB) flushWorker() {
	defer d.wg.Done()
	for {
		select {
		case <-d.quit:
			return
		case <-d.bgWork:
		}
		if !d.bgDrain() {
			return
		}
	}
}

// bgDrain runs the worker's inner loop: flush, compact, retry on transient
// failure, park on corruption. Returns false when the DB is closing.
func (d *DB) bgDrain() bool {
	for {
		select {
		case <-d.quit:
			return false
		default:
		}
		d.mu.RLock()
		hasImm := len(d.imm) > 0
		// L0 can exceed its triggers with an empty immutable queue — e.g.
		// reopening after a crash that left a tall L0. The worker must
		// compact in that state too, or writers stalled on the L0 stop
		// trigger would wait for a flush that never comes.
		needCompact := !d.opts.DisableAutoCompaction &&
			len(d.version.Levels[0]) >= l0CompactTrigger
		parked := d.bgState == bgReadOnly
		d.mu.RUnlock()
		if parked || (!hasImm && !needCompact) {
			return true
		}
		d.compactMu.Lock()
		err := d.flushImm()
		if err == nil && !d.opts.DisableAutoCompaction {
			err = d.compactLoop()
		}
		d.compactMu.Unlock()
		if err == nil {
			d.clearBgError()
			continue
		}
		retry, delay := d.noteBgError(err)
		if !retry {
			// Read-only: the handler already woke stalled writers so they
			// fail fast. The worker idles until Resume re-notifies it.
			return true
		}
		select {
		case <-d.quit:
			return false
		case <-time.After(delay):
		}
	}
}

// drainAndCompact synchronously flushes every queued immutable memtable and
// (optionally) compacts until the tree satisfies its shape invariants. It is
// the foreground counterpart of the worker's inner loop, used by Flush,
// Compact and the inline-compaction write path.
func (d *DB) drainAndCompact(compact bool) error {
	d.compactMu.Lock()
	defer d.compactMu.Unlock()
	for {
		d.mu.RLock()
		n := len(d.imm)
		d.mu.RUnlock()
		if n == 0 {
			break
		}
		if err := d.flushImm(); err != nil {
			return err
		}
		// Compact between flushes, like the worker, so a queued backlog
		// can never push L0 past its stop trigger.
		if compact {
			if err := d.compactLoop(); err != nil {
				return err
			}
		}
	}
	if compact {
		return d.compactLoop()
	}
	return nil
}

// flushImm writes the oldest immutable memtable to a new L0 table, commits
// the manifest edit that adds it and retires the memtable's WAL, installs
// the version and deletes the WAL. No-op when the queue is empty. Caller
// holds compactMu; d.mu is taken only to swap pointers once the edit is
// durable, so reads and commits proceed during the table write and the
// manifest sync.
func (d *DB) flushImm() error {
	d.mu.RLock()
	var im *immTable
	if len(d.imm) > 0 {
		im = d.imm[0]
	}
	d.mu.RUnlock()
	if im == nil {
		return nil
	}
	start := time.Now()
	defer d.metrics.flushNanos.ObserveSince(start)

	meta, err := d.writeMemTable(im.mem)
	if err != nil {
		return err
	}
	// On failure the table stays on disk: the edit may have reached the
	// manifest (manifest.Store.Commit), and if it did not, the next Open
	// deletes the orphan.
	v, err := d.store.Commit(&manifest.Edit{
		Kind:        manifest.EditFlush,
		Added:       []manifest.LevelFile{{Level: 0, Meta: meta}},
		RetiredWALs: []uint64{im.walNum},
		NextFileNum: d.nextFileNum.Load(),
		LastSeq:     d.seqAlloc.Load(),
	})
	if err != nil {
		return err
	}

	d.mu.Lock()
	dead := d.installVersion(v, nil)
	d.metrics.flushes.Inc()
	d.metrics.flushedBytes.Add(int64(meta.Size))
	d.imm = d.imm[1:]
	d.storeMemGaugesLocked()
	d.bgCond.Broadcast()
	d.mu.Unlock()
	d.removeTables(dead)

	// The manifest no longer lists this WAL; its contents live in the
	// flushed table. A crash before this Remove just replays it redundantly
	// (every record is shadowed by an identical one already on disk) — and
	// for exactly that reason a FAILED remove is not a flush failure: the
	// flush is durably complete, the leftover log is harmless garbage that
	// the next Open's orphan sweep retries. Poisoning the background state
	// here would turn a cosmetic deletion hiccup into a write outage.
	d.removeWAL(im.walNum, "flushed")
	return nil
}

// removeWAL deletes a log the manifest no longer lists. A failure is only
// logged and counted: the next Open's orphan sweep retries.
func (d *DB) removeWAL(num uint64, what string) {
	path := walPath(d.opts.Dir, num)
	if !d.fs.Exists(path) {
		return
	}
	if err := d.fs.Remove(path); err != nil {
		d.logf("lsm: removing %s wal %06d failed (will retry on reopen): %v", what, num, err)
		d.metrics.walRemoveErrors.Inc()
	}
}

// writeMemTable persists mem as an sstable and returns its metadata.
// Safe without d.mu: the file number comes from an atomic counter and the
// memtable is immutable.
func (d *DB) writeMemTable(mem *memtable.MemTable) (*manifest.FileMeta, error) {
	fileNum := d.nextFileNum.Add(1) - 1
	f, err := d.fs.Create(sstPath(d.opts.Dir, fileNum))
	if err != nil {
		return nil, err
	}
	// Flush output pays the background I/O budget (no-op when unlimited).
	f = limitFile(f, d.ioLimit)
	w := sstable.NewWriter(f, sstable.WriterOptions{
		BlockSize:   d.opts.BlockSize,
		BitsPerKey:  bitsPerKey,
		Compression: d.opts.Compression,
	})
	it := mem.NewIter()
	for ok := it.First(); ok; ok = it.Next() {
		if err := w.Add(it.Key(), it.Value()); err != nil {
			f.Close()
			return nil, err
		}
	}
	meta, err := w.Finish()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fm := &manifest.FileMeta{
		FileNum:    fileNum,
		Size:       meta.Size,
		NumEntries: meta.NumEntries,
		Smallest:   append(keys.InternalKey(nil), meta.Smallest...),
		Largest:    append(keys.InternalKey(nil), meta.Largest...),
	}
	// ParanoidChecks: re-read and verify the table before anything can
	// reference it; a bad write is deleted and retried instead of installed.
	if err := d.paranoidCheck(fm); err != nil {
		return nil, err
	}
	return fm, nil
}
