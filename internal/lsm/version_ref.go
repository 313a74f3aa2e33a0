package lsm

import "adcache/internal/manifest"

// versionHandle reference-counts a Version so that in-flight reads can pin
// the file set they iterate while compactions install newer versions.
// Obsolete files are deleted only once no live handle references them. A
// version is installed only after the manifest edit that leads to it is
// durable, so a file no live version references is already unreferenced on
// disk and can go at once.
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

// releaseVersion unpins h. When the last reference to a superseded version
// drops, it deletes the files that were only that version's, after letting
// go of verMu.
func (d *DB) releaseVersion(h *versionHandle) {
	var dead []uint64
	d.verMu.Lock()
	h.refs--
	if h.refs == 0 && h != d.current {
		delete(d.live, h)
		dead = d.gcFilesLocked()
	}
	d.verMu.Unlock()
	d.removeTables(dead)
}

// installVersion publishes v as the current version. obsolete lists file
// numbers no longer part of any future version; they are deleted as soon as
// no pinned version references them. It returns the ones no version pins
// now, for the caller to pass to removeTables once it holds no engine lock.
// Caller holds d.mu.
func (d *DB) installVersion(v *manifest.Version, obsolete []uint64) (dead []uint64) {
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
	dead = d.gcFilesLocked()
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
	return dead
}

// gcFilesLocked returns the zombie files referenced by no live version,
// forgetting them and dropping their readers. Caller holds d.verMu.
func (d *DB) gcFilesLocked() (dead []uint64) {
	if len(d.zombies) == 0 {
		return nil
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
		dead = append(dead, fn)
	}
	return dead
}

// removeTables physically removes dead table files. It runs with no engine
// lock held, and syncs no directory: a removal a crash undoes leaves an
// orphan that the next Open deletes.
func (d *DB) removeTables(nums []uint64) {
	for _, fn := range nums {
		// Removal failures are harmless (the file may already be gone);
		// the next reopen's orphan sweep retries.
		_ = d.fs.Remove(sstPath(d.opts.Dir, fn))
	}
}
