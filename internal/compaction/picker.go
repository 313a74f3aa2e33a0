// Package compaction decides what to compact. The picker is pure — it
// inspects an immutable manifest.Version and returns a plan — so it is
// easily unit-tested; the lsm package executes plans.
//
// The policy is the paper's "1-leveling" (RocksDB leveled) scheme: L0→L1
// when L0 accumulates L0Trigger files, and Li→Li+1 when level i exceeds its
// byte target, with targets growing by SizeRatio per level. A plan whose
// inputs overlap nothing in the output level, nor each other, is a move
// (RocksDB's trivial move): its files go down a level as they are.
package compaction

import (
	"bytes"
	"slices"

	"adcache/internal/manifest"
)

// Config carries the shape parameters the picker needs.
type Config struct {
	// L0Trigger is the L0 file count that triggers an L0→L1 compaction.
	L0Trigger int
	// L1TargetSize is level 1's byte budget.
	L1TargetSize int64
	// SizeRatio multiplies the budget per level (paper: 10).
	SizeRatio int
	// NumLevels is the level count.
	NumLevels int
	// TargetFileSize is the size compaction outputs aim for. A file of less
	// than half of it is merged, never moved: each file edge costs a missed
	// scan one more device read, and a rewrite packs small files into
	// full-sized ones.
	TargetFileSize int64
}

// TargetSize returns level's byte budget (level >= 1).
func (c Config) TargetSize(level int) int64 {
	size := c.L1TargetSize
	for i := 1; i < level; i++ {
		size *= int64(c.SizeRatio)
	}
	return size
}

// Plan describes one compaction: merge Inputs (from InputLevel) and
// Overlaps (from OutputLevel) into OutputLevel.
type Plan struct {
	InputLevel  int
	OutputLevel int
	Inputs      []*manifest.FileMeta
	Overlaps    []*manifest.FileMeta
	// LastLevel reports that OutputLevel is the deepest level containing
	// data after the compaction, so tombstones may be dropped.
	LastLevel bool
	// Move reports that Inputs go to OutputLevel unchanged: Overlaps is
	// empty, the inputs are pairwise disjoint in user keys, and none is
	// under half of Config.TargetFileSize. Nothing is read or rewritten.
	Move bool
}

// Files returns all participating files.
func (p *Plan) Files() []*manifest.FileMeta {
	out := make([]*manifest.FileMeta, 0, len(p.Inputs)+len(p.Overlaps))
	out = append(out, p.Inputs...)
	out = append(out, p.Overlaps...)
	return out
}

// Pick selects the next compaction for v, or nil if none is needed.
// roundRobin holds per-level cursors (user keys) so size-triggered
// compactions rotate through a level instead of hammering its first file;
// Pick updates it.
func Pick(v *manifest.Version, cfg Config, roundRobin map[int][]byte) *Plan {
	// L0 has priority: overlapping runs hurt reads the most.
	if len(v.Levels[0]) >= cfg.L0Trigger {
		return pickL0(v, cfg)
	}
	// Deeper levels: compact the most oversized level first.
	bestLevel, bestScore := -1, 1.0
	for level := 1; level < cfg.NumLevels-1; level++ {
		size := v.SizeOfLevel(level)
		if size == 0 {
			continue
		}
		score := float64(size) / float64(cfg.TargetSize(level))
		if score > bestScore {
			bestLevel, bestScore = level, score
		}
	}
	if bestLevel < 0 {
		return nil
	}
	return pickLevel(v, cfg, bestLevel, roundRobin)
}

func pickL0(v *manifest.Version, cfg Config) *Plan {
	inputs := append([]*manifest.FileMeta(nil), v.Levels[0]...)
	lo, hi := keyBounds(inputs)
	overlaps := v.Overlapping(1, lo, hi)
	return &Plan{
		InputLevel:  0,
		OutputLevel: 1,
		Inputs:      inputs,
		Overlaps:    overlaps,
		LastLevel:   deepestDataLevel(v) <= 1,
		Move:        len(overlaps) == 0 && movable(inputs, cfg),
	}
}

func pickLevel(v *manifest.Version, cfg Config, level int, roundRobin map[int][]byte) *Plan {
	files := v.Levels[level]
	// Choose the first file past the round-robin cursor.
	var file *manifest.FileMeta
	cursor := roundRobin[level]
	for _, f := range files {
		if cursor == nil || bytes.Compare(f.Smallest.UserKey(), cursor) > 0 {
			file = f
			break
		}
	}
	if file == nil {
		file = files[0]
	}
	roundRobin[level] = append([]byte(nil), file.Largest.UserKey()...)

	inputs := []*manifest.FileMeta{file}
	lo, hi := keyBounds(inputs)
	overlaps := v.Overlapping(level+1, lo, hi)
	return &Plan{
		InputLevel:  level,
		OutputLevel: level + 1,
		Inputs:      inputs,
		Overlaps:    overlaps,
		LastLevel:   deepestDataLevel(v) <= level+1,
		Move:        len(overlaps) == 0 && movable(inputs, cfg),
	}
}

// movable reports whether files can go down a level unchanged: each holds
// at least half of cfg.TargetFileSize, and no two share a user key.
func movable(files []*manifest.FileMeta, cfg Config) bool {
	for _, f := range files {
		if 2*int64(f.Size) < cfg.TargetFileSize {
			return false
		}
	}
	sorted := slices.Clone(files)
	slices.SortFunc(sorted, func(a, b *manifest.FileMeta) int {
		return bytes.Compare(a.Smallest.UserKey(), b.Smallest.UserKey())
	})
	for i := 1; i < len(sorted); i++ {
		if bytes.Compare(sorted[i-1].Largest.UserKey(), sorted[i].Smallest.UserKey()) >= 0 {
			return false
		}
	}
	return true
}

// keyBounds returns the min smallest and max largest user keys of files.
func keyBounds(files []*manifest.FileMeta) (lo, hi []byte) {
	for _, f := range files {
		if lo == nil || bytes.Compare(f.Smallest.UserKey(), lo) < 0 {
			lo = f.Smallest.UserKey()
		}
		if hi == nil || bytes.Compare(f.Largest.UserKey(), hi) > 0 {
			hi = f.Largest.UserKey()
		}
	}
	return lo, hi
}

// deepestDataLevel returns the index of the deepest non-empty level, or 0.
func deepestDataLevel(v *manifest.Version) int {
	deepest := 0
	for i, level := range v.Levels {
		if len(level) > 0 {
			deepest = i
		}
	}
	return deepest
}
