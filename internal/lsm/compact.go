package lsm

import (
	"bytes"
	"time"

	"adcache/internal/compaction"
	"adcache/internal/keys"
	"adcache/internal/manifest"
	"adcache/internal/sstable"
)

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

// runCompaction merges plan's inputs into the output level in one serial
// merge, or moves them there when the plan is a move. The merge and its
// output writes run without d.mu — reads and write groups proceed
// concurrently — and only the version install takes the exclusive lock,
// after the manifest edit is durable, so readers and the strategy callback
// observe one atomic compaction.
// Input files cannot disappear mid-merge: they belong to the current
// version, version changes are serialised by compactMu (held here), and the
// version GC only deletes files referenced by no live version.
func (d *DB) runCompaction(plan *compaction.Plan) error {
	if plan.Move {
		// A move is a compaction whose outputs are its inputs: nothing is
		// read or written, and the files keep their numbers, so the blocks
		// cached from them stay valid.
		return d.installCompaction(plan, plan.Inputs)
	}
	start := time.Now()
	defer d.metrics.compactNanos.ObserveSince(start)

	outputs, err := d.mergeCompaction(plan)
	if err != nil {
		return err
	}
	return d.installCompaction(plan, outputs)
}

// installCompaction commits the edit that replaces plan's files with
// outputs, one level down for a move, and installs the version it leads
// to. A merge's inputs become obsolete, to be deleted by the version GC once
// no in-flight read pins them; a move's stay live at their new level.
func (d *DB) installCompaction(plan *compaction.Plan, outputs []*manifest.FileMeta) error {
	edit := &manifest.Edit{
		Kind:        manifest.EditCompaction,
		NextFileNum: d.nextFileNum.Load(),
		LastSeq:     d.seqAlloc.Load(),
	}
	for _, f := range plan.Inputs {
		edit.Deleted = append(edit.Deleted, manifest.DeletedFile{Level: plan.InputLevel, FileNum: f.FileNum})
	}
	for _, f := range plan.Overlaps {
		edit.Deleted = append(edit.Deleted, manifest.DeletedFile{Level: plan.OutputLevel, FileNum: f.FileNum})
	}
	for _, f := range outputs {
		edit.Added = append(edit.Added, manifest.LevelFile{Level: plan.OutputLevel, Meta: f})
	}
	var obsolete []uint64
	if !plan.Move {
		for _, f := range plan.Files() {
			obsolete = append(obsolete, f.FileNum)
		}
	}
	// On failure a merge's outputs stay on disk, their readers closed, as a
	// failed flush's table does.
	v, err := d.store.Commit(edit)
	if err != nil {
		if !plan.Move {
			for _, f := range outputs {
				d.tc.evict(f.FileNum)
			}
		}
		return err
	}

	d.mu.Lock()
	dead := d.installVersion(v, obsolete)
	if plan.Move {
		d.metrics.moves.Inc()
		for _, f := range outputs {
			d.metrics.movedBytes.Add(int64(f.Size))
		}
	} else {
		for _, f := range plan.Inputs {
			d.metrics.compactedBytes.Add(int64(f.Size))
			d.metrics.levelCompactIn[plan.InputLevel].Add(int64(f.Size))
		}
		for _, f := range plan.Overlaps {
			d.metrics.compactedBytes.Add(int64(f.Size))
			d.metrics.levelCompactIn[plan.OutputLevel].Add(int64(f.Size))
		}
		for _, f := range outputs {
			d.metrics.compactionOut.Add(int64(f.Size))
			d.metrics.levelCompactOut[plan.OutputLevel].Add(int64(f.Size))
		}
		d.metrics.compactions.Inc()
	}
	// L0 may have shrunk below the stop trigger: wake stalled writers.
	d.bgCond.Broadcast()
	d.mu.Unlock()
	d.removeTables(dead)
	return nil
}

// mergeCompaction merges the plan's inputs and writes the output tables.
func (d *DB) mergeCompaction(plan *compaction.Plan) ([]*manifest.FileMeta, error) {
	// One iterator per sorted run of the plan: the output level's overlaps,
	// and the input level's files together (one sorted run below L0) or one
	// by one (L0 files overlap each other). Run iterators open a file only
	// when the merge reaches it. Compaction reads bypass the cache — RocksDB
	// does not pollute the block cache with compaction I/O, and neither do
	// we — and come in sequential windows, not block by block; the vfs
	// layer still counts them.
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
		l.init(d.tc, files, nil, nil)
		l.noCache = true
		iters = append(iters, l)
	}

	merged := newMergingIter(iters...)
	return d.writeCompactionOutputs(merged, plan.LastLevel)
}

// writeCompactionOutputs streams the merged inputs into output tables,
// dropping shadowed versions and — when compacting into the deepest data
// level — tombstones. Runs without d.mu. On error every file this call
// created is deleted before returning, so failed compactions never leave
// orphan SSTs.
func (d *DB) writeCompactionOutputs(merged *mergingIter, lastLevel bool) (outputs []*manifest.FileMeta, err error) {
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
		if err := d.openNewTable(fm); err != nil {
			return err
		}
		outputs = append(outputs, fm)
		return nil
	}

	for ok := merged.First(); ok; ok = merged.Next() {
		ik := merged.Key()
		uk := ik.UserKey()
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
			f = file
			w = sstable.NewWriter(file, sstable.WriterOptions{
				BlockSize:   d.opts.blockSize,
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

// removeOutputs closes the readers of, and best-effort deletes, output
// tables that were never installed in a version (failed jobs).
// The files are invisible to readers and the manifest, so this needs no
// locks.
func (d *DB) removeOutputs(outs []*manifest.FileMeta) {
	for _, f := range outs {
		d.tc.evict(f.FileNum)
		path := sstPath(d.opts.Dir, f.FileNum)
		if d.fs.Exists(path) {
			d.fs.Remove(path)
		}
	}
}
