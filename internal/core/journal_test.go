package core

import (
	"fmt"
	"testing"
	"unsafe"

	"adcache/internal/rl"
)

// TestJournalWrapsAndResumes: after JournalCap+1 windows the journal holds
// the newest JournalCap records in window order, a reader resumes from the
// last window it saw, and the ring stays within 1 MiB.
func TestJournalWrapsAndResumes(t *testing.T) {
	if size := unsafe.Sizeof(journal{}); size > 1<<20 {
		t.Fatalf("journal is %d bytes, over 1 MiB", size)
	}
	// A pinned controller closes windows without the agent's work, so the
	// ring wraps quickly; every window still gets its record.
	a := newTestAdCache(t, Config{WindowSize: 4})
	a.Pin(rl.Action{RangeRatio: 0.5})
	for i := 0; i < 4*(JournalCap+1); i++ {
		a.GetCached([]byte(fmt.Sprintf("k%d", i%8)))
	}
	if got, want := a.Windows(), int64(JournalCap+1); got != want {
		t.Fatalf("%d windows closed, want %d", got, want)
	}
	recs := a.Journal(0)
	if len(recs) != JournalCap {
		t.Fatalf("Journal(0) returned %d records, want %d", len(recs), JournalCap)
	}
	for i, r := range recs {
		if want := int64(i + 2); r.Windows != want {
			t.Fatalf("record %d is window %d, want %d", i, r.Windows, want)
		}
		if r.Trained || r.Window.Points == 0 {
			t.Fatalf("record %d: trained %v, window %+v", i, r.Trained, r.Window)
		}
	}
	if last := a.TuningState(); last != recs[len(recs)-1] {
		t.Fatalf("TuningState %+v is not the newest record %+v", last, recs[len(recs)-1])
	}
	tail := a.Journal(JournalCap - 2)
	if len(tail) != 3 || tail[0].Windows != JournalCap-1 {
		t.Fatalf("Journal(%d) returned %d records from window %d", JournalCap-2, len(tail), tail[0].Windows)
	}
	if n := len(a.Journal(a.Windows())); n != 0 {
		t.Fatalf("Journal(newest) returned %d records", n)
	}
}

// TestJournalAddAllocatesNothing pins the window record's cost: the ring is
// preallocated, so appending to it allocates nothing.
func TestJournalAddAllocatesNothing(t *testing.T) {
	j := new(journal)
	rec := TuningState{HEstimate: 0.5, Trained: true}
	if n := testing.AllocsPerRun(100, func() { j.add(rec) }); n != 0 {
		t.Fatalf("journal add allocates %v times", n)
	}
}
