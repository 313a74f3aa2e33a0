package wal

import (
	"fmt"
	"testing"

	"adcache/internal/keys"
	"adcache/internal/vfs"
)

func crashRec(i int) Record {
	return Record{
		Seq:   uint64(i + 1),
		Kind:  keys.KindSet,
		Key:   []byte(fmt.Sprintf("key%03d", i)),
		Value: []byte(fmt.Sprintf("val%03d", i)),
	}
}

// TestCrashTornTailReplay writes a log through the crash-simulating FS,
// syncing part-way, then crashes with a torn (sector-truncated) unsynced
// tail. Replay must recover every synced record, may recover a prefix of the
// complete unsynced ones, and must stop cleanly at the tear — never error,
// never produce a record that was not appended.
func TestCrashTornTailReplay(t *testing.T) {
	const total, synced = 120, 50
	for seed := int64(0); seed < 16; seed++ {
		cfs := vfs.NewCrash(vfs.NewMem())
		f, err := cfs.Create("wal")
		if err != nil {
			t.Fatal(err)
		}
		w := NewWriter(f)
		for i := 0; i < total; i++ {
			if err := add(w, crashRec(i)); err != nil {
				t.Fatalf("seed %d: append %d: %v", seed, i, err)
			}
			if i == synced-1 {
				if err := w.Sync(); err != nil {
					t.Fatalf("seed %d: sync: %v", seed, err)
				}
			}
		}
		recovered := cfs.Crash(vfs.CrashOptions{Seed: seed, KeepTornTail: true, SectorSize: 512})

		g, err := recovered.Open("wal")
		if err != nil {
			t.Fatalf("seed %d: open recovered wal: %v", seed, err)
		}
		var got []Record
		maxSeq, err := Replay(g, func(r Record) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: replay after torn crash: %v", seed, err)
		}
		if len(got) < synced {
			t.Fatalf("seed %d: replayed %d records, %d were synced", seed, len(got), synced)
		}
		if len(got) > total {
			t.Fatalf("seed %d: replayed %d records, only %d appended", seed, len(got), total)
		}
		// The replayed stream must be an exact prefix of what was appended.
		for i, r := range got {
			want := crashRec(i)
			if r.Seq != want.Seq || string(r.Key) != string(want.Key) || string(r.Value) != string(want.Value) {
				t.Fatalf("seed %d: record %d = %+v, want %+v", seed, i, r, want)
			}
		}
		if maxSeq != uint64(len(got)) {
			t.Fatalf("seed %d: maxSeq %d != %d records", seed, maxSeq, len(got))
		}
	}
}

// TestCrashDiscardsUnsyncedTail is the no-torn-tail variant: with the whole
// unsynced suffix discarded, replay recovers exactly the synced prefix.
func TestCrashDiscardsUnsyncedTail(t *testing.T) {
	const total, synced = 80, 30
	cfs := vfs.NewCrash(vfs.NewMem())
	f, err := cfs.Create("wal")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f)
	for i := 0; i < total; i++ {
		if err := add(w, crashRec(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if i == synced-1 {
			if err := w.Sync(); err != nil {
				t.Fatalf("sync: %v", err)
			}
		}
	}
	recovered := cfs.Crash(vfs.CrashOptions{})

	g, err := recovered.Open("wal")
	if err != nil {
		t.Fatalf("open recovered wal: %v", err)
	}
	n := 0
	maxSeq, err := Replay(g, func(r Record) error {
		n++
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if n != synced || maxSeq != synced {
		t.Fatalf("replayed %d records (maxSeq %d), want exactly the %d synced", n, maxSeq, synced)
	}
}
