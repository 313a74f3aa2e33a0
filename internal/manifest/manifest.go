// Package manifest tracks the LSM tree's file-level metadata: which
// SSTables live at which level, which write-ahead logs are live, the next
// file number, and the last committed sequence number.
//
// The MANIFEST file is a log of version edits (edit.go): a snapshot of the
// whole state, then one crc-framed edit per version change, each appended
// and synced on its own (store.go). Recovery folds the intact prefix of the
// log. Once the log outgrows a multiple of its snapshot, the store writes a
// fresh snapshot to a new file and renames it over MANIFEST.
package manifest

import (
	"bytes"
	"fmt"

	"adcache/internal/keys"
)

// FileMeta describes one SSTable.
type FileMeta struct {
	FileNum    uint64
	Size       uint64
	NumEntries uint64
	Smallest   keys.InternalKey
	Largest    keys.InternalKey
}

// OverlapsUser reports whether the file's user-key range intersects
// [lo, hi]. A nil hi means +infinity.
func (f *FileMeta) OverlapsUser(lo, hi []byte) bool {
	if hi != nil && bytes.Compare(f.Smallest.UserKey(), hi) > 0 {
		return false
	}
	if lo != nil && bytes.Compare(f.Largest.UserKey(), lo) < 0 {
		return false
	}
	return true
}

// ContainsUser reports whether userKey falls within the file's range.
func (f *FileMeta) ContainsUser(userKey []byte) bool {
	return bytes.Compare(f.Smallest.UserKey(), userKey) <= 0 &&
		bytes.Compare(userKey, f.Largest.UserKey()) <= 0
}

// Version is an immutable snapshot of the tree's file layout.
// Levels[0] may contain overlapping files ordered newest-first; deeper
// levels hold non-overlapping files sorted by smallest key.
type Version struct {
	Levels [][]*FileMeta
}

// NewVersion returns an empty version with numLevels levels.
func NewVersion(numLevels int) *Version {
	return &Version{Levels: make([][]*FileMeta, numLevels)}
}

// Clone deep-copies the level structure (FileMeta values are shared; they
// are immutable once created).
func (v *Version) Clone() *Version {
	nv := NewVersion(len(v.Levels))
	for i, level := range v.Levels {
		nv.Levels[i] = append([]*FileMeta(nil), level...)
	}
	return nv
}

// lists reports whether a table numbered num is live at some level.
func (v *Version) lists(num uint64) bool {
	for _, level := range v.Levels {
		for _, f := range level {
			if f.FileNum == num {
				return true
			}
		}
	}
	return false
}

// NumFiles reports the total file count.
func (v *Version) NumFiles() int {
	n := 0
	for _, level := range v.Levels {
		n += len(level)
	}
	return n
}

// SizeOfLevel reports the byte size of one level.
func (v *Version) SizeOfLevel(level int) uint64 {
	var total uint64
	for _, f := range v.Levels[level] {
		total += f.Size
	}
	return total
}

// TotalSize reports the byte size of all levels.
func (v *Version) TotalSize() uint64 {
	var total uint64
	for i := range v.Levels {
		total += v.SizeOfLevel(i)
	}
	return total
}

// NumSortedRuns reports the number of sorted runs: each L0 file is its own
// run, each non-empty deeper level is one run. This feeds the paper's
// IO_estimate model.
func (v *Version) NumSortedRuns() int {
	runs := len(v.Levels[0])
	for _, level := range v.Levels[1:] {
		if len(level) > 0 {
			runs++
		}
	}
	return runs
}

// NumNonEmptyLevels reports L, the number of levels holding data.
func (v *Version) NumNonEmptyLevels() int {
	n := 0
	for _, level := range v.Levels {
		if len(level) > 0 {
			n++
		}
	}
	return n
}

// Overlapping returns the files in level whose user-key ranges intersect
// [lo, hi] (hi nil = +inf), in level order.
func (v *Version) Overlapping(level int, lo, hi []byte) []*FileMeta {
	var out []*FileMeta
	for _, f := range v.Levels[level] {
		if f.OverlapsUser(lo, hi) {
			out = append(out, f)
		}
	}
	return out
}

// check verifies the level invariants: every file has valid bounds with
// smallest <= largest, no file number appears twice, and each level below
// L0 is sorted by key with no two files overlapping.
func (v *Version) check() error {
	seen := make(map[uint64]bool)
	for level, files := range v.Levels {
		for i, f := range files {
			if seen[f.FileNum] {
				return fmt.Errorf("manifest: file %06d listed twice", f.FileNum)
			}
			seen[f.FileNum] = true
			if !f.Smallest.Valid() || !f.Largest.Valid() || keys.Compare(f.Smallest, f.Largest) > 0 {
				return fmt.Errorf("manifest: file %06d has invalid bounds", f.FileNum)
			}
			if level > 0 && i > 0 && bytes.Compare(files[i-1].Largest.UserKey(), f.Smallest.UserKey()) >= 0 {
				return fmt.Errorf("manifest: level %d: file %06d overlaps its predecessor", level, f.FileNum)
			}
		}
	}
	return nil
}

// State is everything the manifest persists.
type State struct {
	NextFileNum uint64
	LastSeq     uint64
	// WALNums lists every live log oldest-first: one per sealed memtable
	// still awaiting flush, then the active log. Recovery replays them in
	// order.
	WALNums []uint64
	Version *Version
}
