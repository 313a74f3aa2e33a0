package lsm

import "adcache/internal/manifest"

// versionHandle reference-counts a Version so that in-flight reads can pin
// the file set they iterate while compactions install newer versions.
// Obsolete files are deleted only once no live handle references them.
type versionHandle struct {
	v    *manifest.Version
	refs int // guarded by DB.verMu
}

// acquireVersion pins the current version for a read operation.
func (d *DB) acquireVersion() *versionHandle {
	d.verMu.Lock()
	h := d.current
	h.refs++
	d.verMu.Unlock()
	return h
}

// releaseVersion unpins h, garbage-collecting obsolete files when the last
// reference to a superseded version drops.
func (d *DB) releaseVersion(h *versionHandle) {
	d.verMu.Lock()
	h.refs--
	if h.refs == 0 && h != d.current {
		delete(d.live, h)
		d.gcFilesLocked()
	}
	d.verMu.Unlock()
}

// installVersion publishes v as the current version. obsolete lists file
// numbers no longer part of any future version; they are deleted as soon as
// no pinned version references them. Caller holds d.mu.
func (d *DB) installVersion(v *manifest.Version, obsolete []uint64) {
	d.verMu.Lock()
	old := d.current
	h := &versionHandle{v: v, refs: 1} // the "current" reference
	d.current = h
	d.live[h] = struct{}{}
	d.version = v
	for _, fn := range obsolete {
		d.zombies[fn] = true
	}
	if old != nil {
		old.refs--
		if old.refs == 0 {
			delete(d.live, old)
		}
	}
	d.gcFilesLocked()
	d.verMu.Unlock()

	info := ShapeInfo{
		NonEmptyLevels: v.NumNonEmptyLevels(),
		SortedRuns:     v.NumSortedRuns(),
		L0Files:        len(v.Levels[0]),
	}
	for _, level := range v.Levels {
		for _, f := range level {
			info.TotalEntries += f.NumEntries
			info.TotalBytes += f.Size
		}
	}
	d.shapeInfo.Store(info)
}

// gcFilesLocked deletes zombie files referenced by no live version.
// Caller holds d.verMu.
func (d *DB) gcFilesLocked() {
	if len(d.zombies) == 0 {
		return
	}
	referenced := make(map[uint64]bool)
	for h := range d.live {
		for _, level := range h.v.Levels {
			for _, f := range level {
				referenced[f.FileNum] = true
			}
		}
	}
	for fn := range d.zombies {
		if referenced[fn] {
			continue
		}
		delete(d.zombies, fn)
		d.tc.evict(fn)
		// Deferred, not deleted: the on-disk manifest may still reference
		// this file. Physical removal happens after the next successful
		// manifest save (takeDeletable) — a crash in between must
		// recover from a manifest whose whole file set is still present.
		d.deletable = append(d.deletable, fn)
	}
}

// takeDeletable hands over the files queued by the version GC. Called by
// saveManifestLocked right after a manifest that no longer references them
// has been durably saved; anything queued afterwards waits for the next save
// (or, if the process dies first, for the orphan sweep on reopen).
func (d *DB) takeDeletable() []uint64 {
	d.verMu.Lock()
	defer d.verMu.Unlock()
	pending := d.deletable
	d.deletable = nil
	return pending
}

// removeTables physically removes table files taken by takeDeletable. It
// runs with no engine lock held: on a real file system each removal is a
// directory update the device must persist.
func (d *DB) removeTables(nums []uint64) {
	for _, fn := range nums {
		// Removal failures are harmless (the file may already be gone);
		// the next reopen's orphan sweep retries.
		_ = d.fs.Remove(sstPath(d.opts.Dir, fn))
	}
}
