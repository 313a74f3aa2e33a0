package lsm

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"adcache/internal/compaction"
	"adcache/internal/keys"
	"adcache/internal/manifest"
	"adcache/internal/sstable"
)

// errCompactionAborted marks a subcompaction shard torn down because a
// sibling shard failed first; the sibling's error is the one reported.
var errCompactionAborted = errors.New("lsm: compaction aborted by sibling shard failure")

// compactLoop runs compactions until the tree satisfies its shape
// invariants. Caller holds compactMu — the only lock under which versions
// change — so the version read for each pick stays valid until its install.
func (d *DB) compactLoop() error {
	for {
		d.mu.RLock()
		v := d.version
		d.mu.RUnlock()
		plan := compaction.Pick(v, d.pickerConfig(), d.roundRobin)
		if plan == nil {
			return nil
		}
		if err := d.runCompaction(plan); err != nil {
			return err
		}
	}
}

// runCompaction merges plan's inputs into the output level, as one serial
// merge or as range-partitioned parallel subcompactions (see
// Options.CompactionParallelism). The merges and output writes run without
// d.mu — reads and write groups proceed concurrently — and only the version
// install takes the exclusive lock, after the manifest edit is durable, so
// readers and the strategy callback observe one atomic compaction regardless
// of how many shards executed it.
// Input files cannot disappear mid-merge: they belong to the current
// version, version changes are serialised by compactMu (held here), and the
// version GC only deletes files referenced by no live version.
func (d *DB) runCompaction(plan *compaction.Plan) error {
	start := time.Now()
	defer d.metrics.compactNanos.ObserveSince(start)

	ranges := d.splitCompaction(plan)
	var outputs []*manifest.FileMeta
	var err error
	if len(ranges) == 1 {
		outputs, err = d.runSubcompaction(plan, ranges[0], nil)
	} else {
		outputs, err = d.runSubcompactionsParallel(plan, ranges)
	}
	if err != nil {
		return err
	}

	edit := &manifest.Edit{
		Kind:        manifest.EditCompaction,
		NextFileNum: d.nextFileNum.Load(),
		LastSeq:     d.seqAlloc.Load(),
	}
	inputs := plan.Files()
	oldNums := make([]uint64, 0, len(inputs))
	for _, f := range plan.Inputs {
		edit.Deleted = append(edit.Deleted, manifest.DeletedFile{Level: plan.InputLevel, FileNum: f.FileNum})
		oldNums = append(oldNums, f.FileNum)
	}
	for _, f := range plan.Overlaps {
		edit.Deleted = append(edit.Deleted, manifest.DeletedFile{Level: plan.OutputLevel, FileNum: f.FileNum})
		oldNums = append(oldNums, f.FileNum)
	}
	newNums := make([]uint64, 0, len(outputs))
	for _, f := range outputs {
		edit.Added = append(edit.Added, manifest.LevelFile{Level: plan.OutputLevel, Meta: f})
		newNums = append(newNums, f.FileNum)
	}
	// On failure the outputs stay on disk, as a failed flush's table does.
	v, err := d.store.Commit(edit)
	if err != nil {
		return err
	}

	// Install the new version. Obsolete input files are deleted by the
	// version GC once no in-flight read pins them.
	d.mu.Lock()
	dead := d.installVersion(v, oldNums)
	for _, f := range inputs {
		d.metrics.compactedBytes.Add(int64(f.Size))
	}
	for _, f := range plan.Inputs {
		d.metrics.levelCompactIn[plan.InputLevel].Add(int64(f.Size))
	}
	for _, f := range plan.Overlaps {
		d.metrics.levelCompactIn[plan.OutputLevel].Add(int64(f.Size))
	}
	for _, f := range outputs {
		d.metrics.compactionOut.Add(int64(f.Size))
		d.metrics.levelCompactOut[plan.OutputLevel].Add(int64(f.Size))
	}
	d.metrics.compactions.Inc()
	d.metrics.subcompactions.Add(int64(len(ranges)))
	// L0 may have shrunk below the stop trigger: wake stalled writers.
	d.bgCond.Broadcast()
	d.mu.Unlock()
	d.removeTables(dead)

	// Notify the strategy: this is the moment block-cache entries keyed by
	// the old files become dead weight. Outside d.mu — the callback only
	// touches its own (thread-safe) caches, and holding the exclusive lock
	// here would stall readers behind cache eviction.
	d.strategy.OnCompaction(oldNums, newNums)

	if d.opts.PrefetchOnCompaction > 0 && d.strategy.BlockCache() != nil {
		if err := d.prefetchOutputs(outputs); err != nil {
			return err
		}
	}
	return nil
}

// splitCompaction cuts plan's keyspace for parallel execution. Beyond the
// configured parallelism cap, shards are floored at one TargetFileSize of
// input each — a shard that cannot fill a single output file costs more in
// setup than its merge saves.
func (d *DB) splitCompaction(plan *compaction.Plan) []compaction.SubRange {
	k := d.opts.CompactionParallelism
	if k > 1 && d.opts.TargetFileSize > 0 {
		var total int64
		for _, f := range plan.Files() {
			total += int64(f.Size)
		}
		if byBytes := int(total / d.opts.TargetFileSize); byBytes < k {
			k = byBytes
		}
	}
	return compaction.Split(plan, k)
}

// runSubcompactionsParallel executes one merge per shard on a worker pool
// bounded by CompactionParallelism. The first shard failure wins: it flips
// the shared cancel flag, sibling shards abort at their next entry, and
// every shard (plus this function, for shards that had already completed)
// deletes its partial outputs — an aborted compaction leaves no orphan SST
// files. On success the per-shard output lists concatenate in shard order;
// ranges are ascending and disjoint, so the result is sorted and
// key-disjoint without a merge step.
func (d *DB) runSubcompactionsParallel(plan *compaction.Plan, ranges []compaction.SubRange) ([]*manifest.FileMeta, error) {
	var cancel atomic.Bool
	shardOut := make([][]*manifest.FileMeta, len(ranges))
	shardErr := make([]error, len(ranges))

	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(d.opts.CompactionParallelism, len(ranges)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for si := range next {
				if cancel.Load() {
					shardErr[si] = errCompactionAborted
					continue
				}
				shardOut[si], shardErr[si] = d.runSubcompaction(plan, ranges[si], &cancel)
				if shardErr[si] != nil {
					cancel.Store(true)
				}
			}
		}()
	}
	for si := range ranges {
		next <- si
	}
	close(next)
	wg.Wait()

	var firstErr error
	for _, err := range shardErr {
		if err != nil && err != errCompactionAborted {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		for _, err := range shardErr {
			firstErr = err
			if err != nil {
				break
			}
		}
	}
	if firstErr != nil {
		for _, outs := range shardOut {
			d.removeOutputs(outs)
		}
		return nil, firstErr
	}

	var outputs []*manifest.FileMeta
	for _, outs := range shardOut {
		outputs = append(outputs, outs...)
	}
	return outputs, nil
}

// runSubcompaction merges the plan's inputs restricted to sr and writes the
// shard's output tables. cancel, when non-nil, is polled between entries so
// a failing sibling tears this shard down promptly. With the zero SubRange
// and nil cancel this is exactly the serial compaction path.
func (d *DB) runSubcompaction(plan *compaction.Plan, sr compaction.SubRange, cancel *atomic.Bool) ([]*manifest.FileMeta, error) {
	start := time.Now()
	defer d.metrics.subcompactNanos.ObserveSince(start)

	// One iterator per sorted run of the plan: the output level's overlaps,
	// and the input level's files together (one sorted run below L0) or one
	// by one (L0 files overlap each other). Run iterators open a file only
	// when the merge reaches it, and each shard reads only the blocks its
	// range covers: the lower bound is the initial Seek in
	// writeCompactionOutputs, the upper bound stops the table iterators.
	// Compaction reads bypass the cache — RocksDB does not pollute the block
	// cache with compaction I/O, and neither do we — and come in sequential
	// windows, not block by block; the vfs layer still counts them.
	runs := [][]*manifest.FileMeta{plan.Overlaps, plan.Inputs}
	if plan.InputLevel == 0 {
		runs = runs[:1]
		for i := range plan.Inputs {
			runs = append(runs, plan.Inputs[i:i+1])
		}
	}
	iters := make([]internalIterator, 0, len(runs))
	for _, files := range runs {
		if len(files) == 0 {
			continue
		}
		l := new(levelIter)
		l.init(d.tc, files, nil, sr.End)
		l.noCache = true
		iters = append(iters, l)
	}

	merged := newMergingIter(iters...)
	return d.writeCompactionOutputs(merged, sr, plan.LastLevel, cancel)
}

// prefetchOutputs warms the block cache with the leading blocks of each
// compaction output (Leaper-style re-population). Reads go through the
// normal cached-read path so the cache applies its own admission.
func (d *DB) prefetchOutputs(outputs []*manifest.FileMeta) error {
	for _, f := range outputs {
		if err := d.prefetchFile(f); err != nil {
			return err
		}
	}
	return nil
}

// prefetchIterDone is a test hook observing every prefetch iterator as it
// is released, so the regression test for the close-on-every-path contract
// can see them. Nil outside tests.
var prefetchIterDone func(*sstable.Iter)

// prefetchFile reads up to PrefetchOnCompaction blocks of one output file
// through the cached path. The iterator is closed on every return path: a
// leaked iterator would pin the reader's parsed index and the pooled block
// state beyond the prefetch.
func (d *DB) prefetchFile(f *manifest.FileMeta) error {
	r, err := d.tc.get(f.FileNum)
	if err != nil {
		return err
	}
	var stats sstable.ReadStats
	it, err := r.NewIter(&stats)
	if err != nil {
		return err
	}
	defer func() {
		it.Close()
		if prefetchIterDone != nil {
			prefetchIterDone(it)
		}
	}()
	// One entry per block suffices to pull the block in; stepping a
	// whole block at a time needs only the iterator's block boundary,
	// so walk entries until the misses counter reaches the budget.
	for ok := it.First(); ok; ok = it.Next() {
		if stats.BlockMisses+stats.BlockHits >= int64(d.opts.PrefetchOnCompaction) {
			break
		}
	}
	return it.Err()
}

// writeCompactionOutputs streams the merged shard in [sr.Start, sr.End)
// into output tables, dropping shadowed versions and — when compacting into
// the deepest data level — tombstones. Runs without d.mu. On error (or
// cancellation) every file this call created is deleted before returning,
// so failed compactions never leave orphan SSTs.
func (d *DB) writeCompactionOutputs(merged *mergingIter, sr compaction.SubRange, lastLevel bool, cancel *atomic.Bool) (outputs []*manifest.FileMeta, err error) {
	var w *sstable.Writer
	var f interface {
		Close() error
	}
	var fileNum uint64
	var lastUser []byte

	defer func() {
		if err == nil {
			return
		}
		if f != nil {
			f.Close()
			outputs = append(outputs, &manifest.FileMeta{FileNum: fileNum})
		}
		d.removeOutputs(outputs)
		outputs = nil
	}()

	finish := func() error {
		if w == nil {
			return nil
		}
		meta, err := w.Finish()
		if err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		w, f = nil, nil
		fm := &manifest.FileMeta{
			FileNum:    fileNum,
			Size:       meta.Size,
			NumEntries: meta.NumEntries,
			Smallest:   append(keys.InternalKey(nil), meta.Smallest...),
			Largest:    append(keys.InternalKey(nil), meta.Largest...),
		}
		// ParanoidChecks: verify the closed output before it can be
		// installed; a rejected table is deleted and the compaction retried.
		if err := d.paranoidCheck(fm); err != nil {
			return err
		}
		outputs = append(outputs, fm)
		return nil
	}

	// The shard's lower bound is a seek, not a filter: the search key sorts
	// before every version of sr.Start, so the merge starts exactly at the
	// shard's first internal key and reads nothing below it.
	var ok bool
	if sr.Start == nil {
		ok = merged.First()
	} else {
		ok = merged.Seek(keys.MakeSearch(sr.Start, keys.MaxSeq))
	}
	for ; ok; ok = merged.Next() {
		if cancel != nil && cancel.Load() {
			return outputs, errCompactionAborted
		}
		ik := merged.Key()
		uk := ik.UserKey()
		if sr.End != nil && bytes.Compare(uk, sr.End) >= 0 {
			// Defence in depth: the bounded child iterators already stop
			// below sr.End.
			break
		}
		if lastUser != nil && bytes.Equal(uk, lastUser) {
			// Shadowed older version.
			continue
		}
		lastUser = append(lastUser[:0], uk...)
		if lastLevel && ik.Kind() == keys.KindDelete {
			// Tombstone reaching the deepest data level: drop it.
			continue
		}
		if w == nil {
			fileNum = d.nextFileNum.Add(1) - 1
			file, err := d.fs.Create(sstPath(d.opts.Dir, fileNum))
			if err != nil {
				return outputs, err
			}
			// Compaction output pays the background I/O budget.
			file = limitFile(file, d.ioLimit)
			f = file
			w = sstable.NewWriter(file, sstable.WriterOptions{
				BlockSize:   d.opts.BlockSize,
				BitsPerKey:  bitsPerKey,
				Compression: d.opts.Compression,
			})
		}
		if err := w.Add(ik, merged.Value()); err != nil {
			return outputs, err
		}
		if w.EstimatedSize() >= uint64(d.opts.TargetFileSize) {
			if err := finish(); err != nil {
				return outputs, err
			}
			// Keys cannot repeat across outputs; reset the dedup anchor is
			// unnecessary (lastUser continues across files by design).
		}
	}
	if err := merged.Err(); err != nil {
		return outputs, err
	}
	if err := finish(); err != nil {
		return outputs, err
	}
	return outputs, nil
}

// removeOutputs best-effort deletes compaction output files that were never
// installed in a version (failed or cancelled shards). The files are
// invisible to readers and the manifest, so deletion needs no locks.
func (d *DB) removeOutputs(outs []*manifest.FileMeta) {
	for _, f := range outs {
		path := sstPath(d.opts.Dir, f.FileNum)
		if d.fs.Exists(path) {
			d.fs.Remove(path)
		}
	}
}
