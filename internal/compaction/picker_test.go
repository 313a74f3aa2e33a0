package compaction

import (
	"testing"

	"adcache/internal/keys"
	"adcache/internal/manifest"
)

func fm(num uint64, lo, hi string, size uint64) *manifest.FileMeta {
	return &manifest.FileMeta{
		FileNum:  num,
		Size:     size,
		Smallest: keys.Make([]byte(lo), 1, keys.KindSet),
		Largest:  keys.Make([]byte(hi), 1, keys.KindSet),
	}
}

func testConfig() Config {
	return Config{L0Trigger: 4, L1TargetSize: 1000, SizeRatio: 10, NumLevels: 5}
}

func TestNoCompactionWhenHealthy(t *testing.T) {
	v := manifest.NewVersion(5)
	v.Levels[0] = []*manifest.FileMeta{fm(1, "a", "z", 100)}
	v.Levels[1] = []*manifest.FileMeta{fm(2, "a", "z", 500)}
	if plan := Pick(v, testConfig(), map[int][]byte{}); plan != nil {
		t.Fatalf("unexpected plan: %+v", plan)
	}
}

func TestL0TriggerCompactsAllL0PlusOverlaps(t *testing.T) {
	v := manifest.NewVersion(5)
	for i := 0; i < 4; i++ {
		v.Levels[0] = append(v.Levels[0], fm(uint64(i+1), "c", "m", 100))
	}
	v.Levels[1] = []*manifest.FileMeta{
		fm(10, "a", "b", 100), // no overlap
		fm(11, "d", "f", 100), // overlap
		fm(12, "n", "z", 100), // no overlap
	}
	plan := Pick(v, testConfig(), map[int][]byte{})
	if plan == nil || plan.InputLevel != 0 || plan.OutputLevel != 1 {
		t.Fatalf("plan = %+v", plan)
	}
	if len(plan.Inputs) != 4 {
		t.Fatalf("inputs = %d files", len(plan.Inputs))
	}
	if len(plan.Overlaps) != 1 || plan.Overlaps[0].FileNum != 11 {
		t.Fatalf("overlaps = %+v", plan.Overlaps)
	}
}

func TestSizeTriggeredLevelCompaction(t *testing.T) {
	v := manifest.NewVersion(5)
	// L1 over its 1000-byte target.
	v.Levels[1] = []*manifest.FileMeta{
		fm(1, "a", "f", 800),
		fm(2, "g", "p", 800),
	}
	v.Levels[2] = []*manifest.FileMeta{fm(3, "a", "h", 500), fm(4, "i", "z", 500)}
	plan := Pick(v, testConfig(), map[int][]byte{})
	if plan == nil || plan.InputLevel != 1 || plan.OutputLevel != 2 {
		t.Fatalf("plan = %+v", plan)
	}
	if len(plan.Inputs) != 1 {
		t.Fatalf("inputs = %d", len(plan.Inputs))
	}
}

func TestRoundRobinRotates(t *testing.T) {
	v := manifest.NewVersion(5)
	v.Levels[1] = []*manifest.FileMeta{
		fm(1, "a", "f", 900),
		fm(2, "g", "p", 900),
	}
	rr := map[int][]byte{}
	p1 := Pick(v, testConfig(), rr)
	if p1.Inputs[0].FileNum != 1 {
		t.Fatalf("first pick = %d", p1.Inputs[0].FileNum)
	}
	p2 := Pick(v, testConfig(), rr)
	if p2.Inputs[0].FileNum != 2 {
		t.Fatalf("second pick = %d (cursor did not advance)", p2.Inputs[0].FileNum)
	}
	// Cursor wraps.
	p3 := Pick(v, testConfig(), rr)
	if p3.Inputs[0].FileNum != 1 {
		t.Fatalf("third pick = %d (cursor did not wrap)", p3.Inputs[0].FileNum)
	}
}

func TestLastLevelFlag(t *testing.T) {
	v := manifest.NewVersion(5)
	for i := 0; i < 4; i++ {
		v.Levels[0] = append(v.Levels[0], fm(uint64(i+1), "a", "z", 100))
	}
	plan := Pick(v, testConfig(), map[int][]byte{})
	if !plan.LastLevel {
		t.Fatal("L0→L1 with empty deeper levels must allow tombstone drop")
	}

	v.Levels[3] = []*manifest.FileMeta{fm(9, "a", "z", 100)}
	plan = Pick(v, testConfig(), map[int][]byte{})
	if plan.LastLevel {
		t.Fatal("data below the output level must preserve tombstones")
	}
}

func TestTargetSizes(t *testing.T) {
	cfg := testConfig()
	if cfg.TargetSize(1) != 1000 || cfg.TargetSize(2) != 10000 || cfg.TargetSize(3) != 100000 {
		t.Fatalf("targets = %d %d %d", cfg.TargetSize(1), cfg.TargetSize(2), cfg.TargetSize(3))
	}
}

func TestPlanFiles(t *testing.T) {
	p := &Plan{
		Inputs:   []*manifest.FileMeta{fm(1, "a", "b", 1)},
		Overlaps: []*manifest.FileMeta{fm(2, "a", "b", 1), fm(3, "c", "d", 1)},
	}
	if len(p.Files()) != 3 {
		t.Fatalf("Files = %d", len(p.Files()))
	}
}

// TestMoveOrMerge: a plan moves only when no output-level file overlaps it,
// its inputs are pairwise disjoint, and each input is at least half of
// TargetFileSize; every other plan merges.
func TestMoveOrMerge(t *testing.T) {
	cfg := testConfig()
	cfg.TargetFileSize = 200 // the size floor is 100 bytes
	l0 := func(files ...*manifest.FileMeta) *manifest.Version {
		v := manifest.NewVersion(5)
		v.Levels[0] = files
		return v
	}
	disjointL0 := func() *manifest.Version {
		return l0(fm(4, "m", "p", 100), fm(3, "j", "l", 100), fm(2, "d", "f", 100), fm(1, "a", "c", 100))
	}
	for _, tc := range []struct {
		name   string
		v      *manifest.Version
		move   bool
		inputs int
	}{
		{"disjoint L0 files move together", disjointL0(), true, 4},
		{"L0 files that share a user key merge", l0(fm(4, "m", "p", 100), fm(3, "j", "m", 100), fm(2, "d", "f", 100), fm(1, "a", "c", 100)), false, 4},
		{"an L0 file under the size floor merges", l0(fm(4, "m", "p", 100), fm(3, "j", "l", 99), fm(2, "d", "f", 100), fm(1, "a", "c", 100)), false, 4},
		{"an overlap in the output level merges", func() *manifest.Version {
			v := disjointL0()
			v.Levels[1] = []*manifest.FileMeta{fm(10, "e", "g", 100)}
			return v
		}(), false, 4},
		{"output-level files outside the inputs' range do not stop a move", func() *manifest.Version {
			v := disjointL0()
			v.Levels[1] = []*manifest.FileMeta{fm(11, "q", "z", 100)}
			return v
		}(), true, 4},
		{"an output-level file in a gap between the inputs merges", func() *manifest.Version {
			v := disjointL0()
			v.Levels[1] = []*manifest.FileMeta{fm(10, "g", "i", 100)}
			return v
		}(), false, 4},
		{"a level file with no overlap below moves", func() *manifest.Version {
			v := manifest.NewVersion(5)
			v.Levels[1] = []*manifest.FileMeta{fm(1, "a", "f", 800), fm(2, "g", "p", 800)}
			v.Levels[2] = []*manifest.FileMeta{fm(3, "q", "z", 500)}
			return v
		}(), true, 1},
		{"a level file with an overlap below merges", func() *manifest.Version {
			v := manifest.NewVersion(5)
			v.Levels[1] = []*manifest.FileMeta{fm(1, "a", "f", 800), fm(2, "g", "p", 800)}
			v.Levels[2] = []*manifest.FileMeta{fm(3, "e", "z", 500)}
			return v
		}(), false, 1},
		{"a level file under the size floor merges", func() *manifest.Version {
			v := manifest.NewVersion(5)
			v.Levels[1] = []*manifest.FileMeta{fm(1, "a", "f", 99), fm(2, "g", "p", 1000)}
			return v
		}(), false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := Pick(tc.v, cfg, map[int][]byte{})
			if plan == nil {
				t.Fatal("no plan")
			}
			if plan.Move != tc.move || len(plan.Inputs) != tc.inputs {
				t.Fatalf("Move = %v with %d inputs, want %v with %d", plan.Move, len(plan.Inputs), tc.move, tc.inputs)
			}
			if plan.Move && len(plan.Overlaps) != 0 {
				t.Fatalf("a move with %d overlaps", len(plan.Overlaps))
			}
		})
	}
}
