package manifest

import (
	"testing"

	"adcache/internal/vfs"
)

// TestSaveCrashWindow crashes at every FS operation of an edit's append and
// of a rollover, with and without torn unsynced bytes, and checks that each
// Commit is atomic: Open must always succeed and return either the state
// before the edit or the state after it — never an error or a hybrid — and
// the state after it once the Commit was acknowledged. The swept edit is
// one that names a new file (a seal: directory sync, write, sync), a move
// and a close (neither syncs the directory on the append path).
func TestSaveCrashWindow(t *testing.T) {
	seal := &Edit{Kind: EditSeal, AddedWALs: []uint64{10}, NextFileNum: 11}
	for _, last := range []struct {
		name string
		edit *Edit
		ops  int64 // FS operations of its append
	}{{"seal", seal, 3}, {"move", moveEdit(), 2}, {"close", &Edit{Kind: EditClose, NextFileNum: 10, LastSeq: 32}, 2}} {
		crashSweepLastEdit(t, last.name, append(history(), last.edit), last.ops)
	}
}

// crashSweepLastEdit runs TestSaveCrashWindow's sweep over the last of
// edits, whose append takes appendOps FS operations.
func crashSweepLastEdit(t *testing.T, name string, edits []*Edit, appendOps int64) {
	last := len(edits) - 1
	// prep commits every edit but the last. With reopen set, the store is
	// reopened before the last, so the last is a rollover; otherwise it is
	// an append.
	prep := func(fs vfs.FS, reopen bool) *Store {
		store, _ := open(t, fs)
		for _, e := range edits[:last] {
			if _, err := store.Commit(e); err != nil {
				t.Fatal(err)
			}
		}
		if reopen {
			store.Close()
			store, _ = open(t, fs)
		}
		return store
	}
	_, before := open(t, vfs.NewMem())
	for _, e := range edits[:last] {
		before, _ = before.apply(e)
	}
	after, _ := before.apply(edits[last])

	for _, path := range []struct {
		name   string
		reopen bool
	}{{name + " append", false}, {name + " rollover", true}} {
		probe := vfs.NewCrash(vfs.NewMem())
		store := prep(probe, path.reopen)
		start := probe.OpCount()
		if _, err := store.Commit(edits[last]); err != nil {
			t.Fatal(err)
		}
		ops := probe.OpCount() - start
		if want := map[bool]int64{false: appendOps, true: 5}[path.reopen]; ops != want {
			t.Fatalf("%s: Commit performed %d FS ops, want %d", path.name, ops, want)
		}
		for torn := 0; torn < 2; torn++ {
			for p := int64(0); p <= ops; p++ {
				cfs := vfs.NewCrash(vfs.NewMem())
				store := prep(cfs, path.reopen)
				cfs.ArmCrash(p) // p more ops succeed, then the device dies
				_, commitErr := store.Commit(edits[last])
				if p < ops && commitErr == nil {
					t.Fatalf("%s crash point %d: Commit did not observe the crash", path.name, p)
				}
				recovered := cfs.Crash(vfs.CrashOptions{Seed: p, KeepTornTail: torn == 1, SectorSize: 512})
				_, got, err := Open(recovered, "db", 7)
				if err != nil {
					t.Fatalf("%s crash point %d (torn=%d): Open after crash: %v", path.name, p, torn, err)
				}
				switch {
				case sameState(got, after):
				case sameState(got, before):
					if commitErr == nil {
						t.Fatalf("%s crash point %d (torn=%d): Commit acked but the edit was lost", path.name, p, torn)
					}
				default:
					t.Fatalf("%s crash point %d (torn=%d): hybrid state %v %v", path.name, p, torn, fileNums(got.Version), got.WALNums)
				}
			}
		}
	}
}
