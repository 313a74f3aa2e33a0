package manifest

import (
	"fmt"
	"testing"

	"adcache/internal/keys"
	"adcache/internal/vfs"
)

func fm(num uint64, lo, hi string) *FileMeta {
	return &FileMeta{
		FileNum:  num,
		Size:     100,
		Smallest: keys.Make([]byte(lo), 1, keys.KindSet),
		Largest:  keys.Make([]byte(hi), 1, keys.KindSet),
	}
}

func TestOverlapsAndContains(t *testing.T) {
	f := fm(1, "c", "g")
	cases := []struct {
		lo, hi string
		want   bool
	}{
		{"a", "b", false},
		{"a", "c", true},
		{"d", "e", true},
		{"g", "z", true},
		{"h", "z", false},
	}
	for _, c := range cases {
		if got := f.OverlapsUser([]byte(c.lo), []byte(c.hi)); got != c.want {
			t.Fatalf("Overlaps(%q,%q) = %v", c.lo, c.hi, got)
		}
	}
	// Open-ended ranges.
	if !f.OverlapsUser([]byte("a"), nil) {
		t.Fatal("nil hi must mean +inf")
	}
	if f.OverlapsUser([]byte("z"), nil) {
		t.Fatal("range after file must not overlap")
	}
	if !f.ContainsUser([]byte("c")) || !f.ContainsUser([]byte("g")) || f.ContainsUser([]byte("b")) {
		t.Fatal("ContainsUser boundaries wrong")
	}
}

func TestVersionAccounting(t *testing.T) {
	v := NewVersion(4)
	v.Levels[0] = []*FileMeta{fm(1, "a", "c"), fm(2, "b", "d")}
	v.Levels[1] = []*FileMeta{fm(3, "a", "m"), fm(4, "n", "z")}
	v.Levels[2] = []*FileMeta{fm(5, "a", "z")}

	if v.NumFiles() != 5 {
		t.Fatalf("NumFiles = %d", v.NumFiles())
	}
	// Runs: 2 L0 files + 2 non-empty deeper levels.
	if v.NumSortedRuns() != 4 {
		t.Fatalf("NumSortedRuns = %d", v.NumSortedRuns())
	}
	if v.NumNonEmptyLevels() != 3 {
		t.Fatalf("NumNonEmptyLevels = %d", v.NumNonEmptyLevels())
	}
	if v.SizeOfLevel(1) != 200 {
		t.Fatalf("SizeOfLevel(1) = %d", v.SizeOfLevel(1))
	}
	if v.TotalSize() != 500 {
		t.Fatalf("TotalSize = %d", v.TotalSize())
	}
	over := v.Overlapping(1, []byte("p"), nil)
	if len(over) != 1 || over[0].FileNum != 4 {
		t.Fatalf("Overlapping = %v", over)
	}
}

func TestCloneIsolation(t *testing.T) {
	v := NewVersion(2)
	v.Levels[0] = []*FileMeta{fm(1, "a", "b")}
	c := v.Clone()
	c.Levels[0] = append(c.Levels[0], fm(2, "c", "d"))
	if len(v.Levels[0]) != 1 {
		t.Fatal("Clone shares level slices")
	}
}

// open opens the store in dir on fs, failing the test on error.
func open(t *testing.T, fs vfs.FS) (*Store, State) {
	t.Helper()
	s, st, err := Open(fs, "db", 7)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, st
}

// fileNums lists a version's file numbers level by level.
func fileNums(v *Version) [][]uint64 {
	out := make([][]uint64, len(v.Levels))
	for i, level := range v.Levels {
		for _, f := range level {
			out[i] = append(out[i], f.FileNum)
		}
	}
	return out
}

// sameState reports whether two states list the same files in the same
// order, the same logs and the same counters.
func sameState(a, b State) bool {
	return fmt.Sprint(fileNums(a.Version), a.WALNums, a.NextFileNum, a.LastSeq) ==
		fmt.Sprint(fileNums(b.Version), b.WALNums, b.NextFileNum, b.LastSeq)
}

// history is a run of edits touching every kind of change: flushes
// prepending to L0, a compaction moving L0 into L1, seals and a close.
func history() []*Edit {
	return []*Edit{
		{Kind: EditSeal, AddedWALs: []uint64{1}, NextFileNum: 2},
		{Kind: EditSeal, AddedWALs: []uint64{2}, NextFileNum: 3},
		{Kind: EditFlush, Added: []LevelFile{{0, fm(3, "a", "m")}}, RetiredWALs: []uint64{1}, NextFileNum: 4, LastSeq: 10},
		{Kind: EditSeal, AddedWALs: []uint64{4}, NextFileNum: 5},
		{Kind: EditFlush, Added: []LevelFile{{0, fm(5, "c", "z")}}, RetiredWALs: []uint64{2}, NextFileNum: 6, LastSeq: 20},
		{Kind: EditCompaction,
			Deleted:     []DeletedFile{{0, 3}, {0, 5}},
			Added:       []LevelFile{{1, fm(7, "n", "z")}, {1, fm(6, "a", "m")}},
			NextFileNum: 8, LastSeq: 20},
		{Kind: EditFlush, Added: []LevelFile{{0, fm(8, "b", "d")}}, RetiredWALs: []uint64{4}, NextFileNum: 9, LastSeq: 30},
		{Kind: EditSeal, AddedWALs: []uint64{9}, NextFileNum: 10},
		{Kind: EditClose, NextFileNum: 10, LastSeq: 31},
	}
}

func TestStoreCommitReopenRoundTrip(t *testing.T) {
	fs := vfs.NewMem()
	store, st := open(t, fs)
	if st.NextFileNum != 1 || st.Version.NumFiles() != 0 || len(st.Version.Levels) != 7 {
		t.Fatalf("fresh state = %+v", st)
	}
	for i, e := range history() {
		v, err := store.Commit(e)
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		if st, err = st.apply(e); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		if fmt.Sprint(fileNums(v)) != fmt.Sprint(fileNums(st.Version)) {
			t.Fatalf("edit %d: Commit returned %v, want %v", i, fileNums(v), fileNums(st.Version))
		}
	}
	store.Close()
	if got := fmt.Sprint(fileNums(st.Version)[:2], st.WALNums, st.NextFileNum, st.LastSeq); got != "[[8] [6 7]] [9] 10 31" {
		t.Fatalf("folded state = %s", got)
	}
	_, got := open(t, fs)
	if !sameState(got, st) {
		t.Fatalf("reopened state %v %v, want %v %v", fileNums(got.Version), got.WALNums, fileNums(st.Version), st.WALNums)
	}
	f := got.Version.Levels[1][0]
	if f.Size != 100 || string(f.Smallest.UserKey()) != "a" || string(f.Largest.UserKey()) != "m" {
		t.Fatalf("file meta = %+v", f)
	}
}

// TestCommitAppendsOneFrame: past the first Commit, each edit grows the
// MANIFEST by one frame and costs one directory sync.
func TestCommitAppendsOneFrame(t *testing.T) {
	fs := &syncDirCounter{FS: vfs.NewMem()}
	store, _ := open(t, fs)
	defer store.Close()
	edits := history()
	if _, err := store.Commit(edits[0]); err != nil {
		t.Fatal(err)
	}
	for i, e := range edits[1:] {
		before, syncs := manifestSize(t, fs), fs.n
		if _, err := store.Commit(e); err != nil {
			t.Fatal(err)
		}
		if got, want := manifestSize(t, fs)-before, int64(len(appendFrame(nil, e))); got != want {
			t.Fatalf("edit %d grew the log by %d bytes, want one %d-byte frame", i+1, got, want)
		}
		if fs.n-syncs != 1 {
			t.Fatalf("edit %d made %d directory syncs, want 1", i+1, fs.n-syncs)
		}
	}
}

// TestRolloverBoundsTheLog: the log never grows past its rollover bound,
// and every rollover leaves a log that folds to the same state.
func TestRolloverBoundsTheLog(t *testing.T) {
	fs := vfs.NewMem()
	store, st := open(t, fs)
	defer store.Close()
	v := NewVersion(7)
	rollovers := 0
	for i := uint64(0); i < 3000; i++ {
		e := &Edit{Kind: EditFlush, Added: []LevelFile{{0, fm(i+1, "a", "b")}}, NextFileNum: i + 2}
		if i >= 8 {
			e.Deleted = []DeletedFile{{0, i - 7}}
		}
		before := manifestSize(t, fs)
		var err error
		if v, err = store.Commit(e); err != nil {
			t.Fatal(err)
		}
		if st, err = st.apply(e); err != nil {
			t.Fatal(err)
		}
		if manifestSize(t, fs) < before {
			rollovers++
		}
		if size := manifestSize(t, fs); size > minRolloverBytes+int64(len(appendFrame(nil, e))) {
			t.Fatalf("edit %d: log is %d bytes", i, size)
		}
	}
	if rollovers == 0 {
		t.Fatal("the log never rolled over")
	}
	if len(v.Levels[0]) != 8 {
		t.Fatalf("L0 holds %d files, want 8", len(v.Levels[0]))
	}
	_, got := open(t, fs)
	if !sameState(got, st) {
		t.Fatalf("reopened state differs: %v vs %v", fileNums(got.Version), fileNums(st.Version))
	}
	if fs.Exists("db/MANIFEST.tmp") {
		t.Fatal("rollover left its temp file behind")
	}
}

// TestFailedAppendRollsOver: after an append fails part-way, the next
// Commit writes a fresh log instead of appending behind the torn frame,
// and the failed edit is not part of the state.
func TestFailedAppendRollsOver(t *testing.T) {
	fault := vfs.NewFault(vfs.NewMem())
	store, _ := open(t, fault)
	defer store.Close()
	edits := history()
	for _, e := range edits[:2] {
		if _, err := store.Commit(e); err != nil {
			t.Fatal(err)
		}
	}
	fault.ShortWrites(1)
	if _, err := store.Commit(edits[2]); err == nil {
		t.Fatal("short write not reported")
	}
	if _, err := store.Commit(edits[3]); err != nil {
		t.Fatal(err)
	}
	_, got := open(t, fault)
	_, want := open(t, vfs.NewMem())
	for _, e := range []*Edit{edits[0], edits[1], edits[3]} {
		want, _ = want.apply(e)
	}
	if !sameState(got, want) {
		t.Fatalf("state after failed append: %v %v, want %v %v", fileNums(got.Version), got.WALNums, fileNums(want.Version), want.WALNums)
	}
}

// TestApplyRejectsBrokenEdits: an edit that does not fit the state or
// breaks a level invariant fails and changes nothing.
func TestApplyRejectsBrokenEdits(t *testing.T) {
	_, st := open(t, vfs.NewMem())
	st, _ = st.apply(&Edit{Kind: EditFlush, Added: []LevelFile{{1, fm(1, "a", "c")}}, AddedWALs: []uint64{2}})
	for name, e := range map[string]*Edit{
		"overlap":        {Kind: EditCompaction, Added: []LevelFile{{1, fm(3, "b", "d")}}},
		"duplicate file": {Kind: EditFlush, Added: []LevelFile{{0, fm(1, "x", "y")}}},
		"missing delete": {Kind: EditCompaction, Deleted: []DeletedFile{{2, 1}}},
		"bad level":      {Kind: EditFlush, Added: []LevelFile{{7, fm(4, "a", "b")}}},
		"inverted":       {Kind: EditFlush, Added: []LevelFile{{0, fm(5, "z", "a")}}},
		"dead log":       {Kind: EditFlush, RetiredWALs: []uint64{9}},
		"live log again": {Kind: EditSeal, AddedWALs: []uint64{2}},
	} {
		if _, err := st.apply(e); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if fmt.Sprint(fileNums(st.Version), st.WALNums) != "[[] [1] [] [] [] [] []] [2]" {
		t.Fatalf("state changed: %v %v", fileNums(st.Version), st.WALNums)
	}
}

func TestCorruptManifestRejected(t *testing.T) {
	for name, data := range map[string]string{
		"json":  "{not json",
		"magic": "NOTALOG!",
		"empty": logMagic,
	} {
		fs := vfs.NewMem()
		fs.MkdirAll("db")
		f, _ := fs.Create("db/MANIFEST")
		f.Write([]byte(data))
		if _, _, err := Open(fs, "db", 7); err == nil {
			t.Errorf("%s: corrupt manifest accepted", name)
		}
	}
}

// syncDirCounter counts directory syncs.
type syncDirCounter struct {
	vfs.FS
	n int
}

func (c *syncDirCounter) SyncDir(dir string) error {
	c.n++
	return c.FS.SyncDir(dir)
}

// manifestSize is the MANIFEST's length, 0 before there is one.
func manifestSize(t *testing.T, fs vfs.FS) int64 {
	t.Helper()
	if !fs.Exists("db/MANIFEST") {
		return 0
	}
	f, err := fs.Open("db/MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, _ := f.Size()
	return size
}
