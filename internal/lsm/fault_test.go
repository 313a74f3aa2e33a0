package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"adcache/internal/vfs"
)

// TestWALWriteFailureSurfacesError checks that an injected WAL write failure
// is reported to the caller instead of being swallowed.
func TestWALWriteFailureSurfacesError(t *testing.T) {
	ffs := vfs.NewFault(vfs.NewMem())
	opts := testOptions(ffs)
	db := mustOpen(t, opts)
	defer db.Close()

	if err := db.Put(key(1), val(1)); err != nil {
		t.Fatal(err)
	}
	ffs.FailAfterWrites(0)
	if err := db.Put(key(2), val(2)); err == nil {
		t.Fatal("Put succeeded despite WAL write failure")
	}
	ffs.Reset()
	// The store remains usable once the fault clears.
	if err := db.Put(key(3), val(3)); err != nil {
		t.Fatalf("Put after fault cleared: %v", err)
	}
	if v, ok, _ := db.Get(key(1)); !ok || !bytes.Equal(v, val(1)) {
		t.Fatal("pre-fault write lost")
	}
}

// TestFlushCreateFailure checks flush failures propagate and do not corrupt
// the in-memory state. The fault targets the table: the seal inside Flush
// switches to a log prepared at open, and the next log is prepared off the
// flush's path (TestPreparedLogFailureFallsBack).
func TestFlushCreateFailure(t *testing.T) {
	ffs := vfs.NewFault(vfs.NewMem())
	opts := testOptions(ffs)
	db := mustOpen(t, opts)
	defer db.Close()
	for i := 0; i < 50; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	ffs.Target(".sst")
	ffs.FailCreates(1)
	if err := db.Flush(); err == nil {
		t.Fatal("Flush succeeded despite create failure")
	}
	ffs.Reset()
	// Data still readable from the memtable, and a retried flush works.
	for i := 0; i < 50; i += 7 {
		if v, ok, _ := db.Get(key(i)); !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%d) after failed flush", i)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("retried Flush: %v", err)
	}
	for i := 0; i < 50; i += 7 {
		if v, ok, _ := db.Get(key(i)); !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%d) after retried flush", i)
		}
	}
}

// TestReadFailureSurfaces checks injected read errors reach Get callers.
func TestReadFailureSurfaces(t *testing.T) {
	ffs := vfs.NewFault(vfs.NewMem())
	opts := testOptions(ffs)
	db := mustOpen(t, opts)
	defer db.Close()
	for i := 0; i < 2000; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	ffs.SetFailReads(true)
	// Some key must require a table read (memtable is empty after flush).
	_, _, err := db.Get(key(123))
	ffs.SetFailReads(false)
	if err == nil {
		t.Fatal("Get succeeded despite read failure")
	}
	if _, ok, err := db.Get(key(123)); err != nil || !ok {
		t.Fatalf("Get after fault cleared: ok=%v err=%v", ok, err)
	}
}

// TestRandomizedModelCheck drives random operations against the DB and a
// map model, with periodic flushes, compactions and reopens, verifying
// point and range reads agree throughout.
func TestRandomizedModelCheck(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fs := vfs.NewMem()
			opts := testOptions(fs)
			opts.MemTableSize = 4 << 10 // frequent flushes
			db := mustOpen(t, opts)
			model := map[string]string{}
			rng := rand.New(rand.NewSource(seed))

			modelScan := func(start string, n int) []KV {
				var ks []string
				for k := range model {
					if k >= start {
						ks = append(ks, k)
					}
				}
				sort.Strings(ks)
				if len(ks) > n {
					ks = ks[:n]
				}
				out := make([]KV, len(ks))
				for i, k := range ks {
					out[i] = KV{Key: []byte(k), Value: []byte(model[k])}
				}
				return out
			}

			for op := 0; op < 3000; op++ {
				k := fmt.Sprintf("key%04d", rng.Intn(400))
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					v := fmt.Sprintf("val%08d", op)
					if err := db.Put([]byte(k), []byte(v)); err != nil {
						t.Fatal(err)
					}
					model[k] = v
				case 4:
					if err := db.Delete([]byte(k)); err != nil {
						t.Fatal(err)
					}
					delete(model, k)
				case 5, 6:
					v, ok, err := db.Get([]byte(k))
					if err != nil {
						t.Fatal(err)
					}
					want, wantOK := model[k]
					if ok != wantOK || (ok && string(v) != want) {
						t.Fatalf("op %d: Get(%s) = %q,%v want %q,%v", op, k, v, ok, want, wantOK)
					}
				case 7, 8:
					n := 1 + rng.Intn(10)
					got, err := db.Scan([]byte(k), n)
					if err != nil {
						t.Fatal(err)
					}
					want := modelScan(k, n)
					if len(got) != len(want) {
						t.Fatalf("op %d: Scan(%s,%d) len %d want %d", op, k, n, len(got), len(want))
					}
					for i := range got {
						if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
							t.Fatalf("op %d: Scan mismatch at %d: %s=%s want %s=%s",
								op, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
						}
					}
				case 9:
					if op%500 == 499 {
						// Reopen: everything must survive.
						if err := db.Close(); err != nil {
							t.Fatal(err)
						}
						db = mustOpen(t, opts)
					} else if rng.Intn(2) == 0 {
						if err := db.Flush(); err != nil {
							t.Fatal(err)
						}
					} else {
						if err := db.Compact(); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			db.Close()
		})
	}
}
