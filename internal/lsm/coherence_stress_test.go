package lsm_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adcache/internal/core"
	"adcache/internal/lsm"
	"adcache/internal/vfs"
)

// TestCoherenceStress is the concurrent form of the cache-transparency
// check. Writers bump per-key versions on a small hot key set — every
// fourth key flickers between deleted and present — while readers Get and
// Scan the same span through a result-caching strategy, on a slow device,
// with a memtable small enough that flushes and compactions never stop.
//
// Each key has one owner, who bumps started[key] before issuing a write and
// acked[key] once it was acknowledged; a flickering key is deleted at even
// versions. A reader notes acked before its read and started after it: what
// it observed must be no older than the former and no newer than the latter,
// and a key may be missing from a scan only if a delete lies between the
// two. Close then lands in the middle of the traffic.
func TestCoherenceStress(t *testing.T) {
	const (
		hot     = 32 // h00..h31, written all the time
		tail    = 40 // t00..t39, never written: scans run into them
		writers = 3
		readers = 4
		maxScan = 24
		// Room for a third of the keys or so: results are evicted and
		// re-admitted from disk all the time, next to the writes.
		cacheBytes = 8 << 10
	)
	duration := time.Second
	if testing.Short() {
		duration = 300 * time.Millisecond
	}
	hotKey := func(i int) string { return fmt.Sprintf("h%02d", i) }
	value := func(key string, version uint64) []byte { return []byte(fmt.Sprintf("%s#%d#%0100d", key, version, 0)) }
	flickers := func(i int) bool { return i%4 == 3 }

	for _, sc := range strategyCases {
		if !sc.gets && !sc.scans {
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			strategy := sc.new(t, cacheBytes)
			opts := lsm.DefaultOptions("db")
			opts.FS = vfs.NewLatency(vfs.NewMem(), 100*time.Microsecond, 0)
			opts.Strategy = strategy
			opts.MemTableSize = 8 << 10
			opts.L1TargetSize = 64 << 10
			opts.TargetFileSize = 16 << 10
			db, err := lsm.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			if a, ok := strategy.(*core.AdCache); ok {
				a.Bind(db)
			}
			started, acked := make([]atomic.Uint64, hot), make([]atomic.Uint64, hot)
			for i := 0; i < hot; i++ {
				if err := db.Put([]byte(hotKey(i)), value(hotKey(i), 1)); err != nil {
					t.Fatal(err)
				}
				started[i].Store(1)
				acked[i].Store(1)
			}
			for i := 0; i < tail; i++ {
				k := fmt.Sprintf("t%02d", i)
				if err := db.Put([]byte(k), value(k, 1)); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}

			var stop atomic.Bool
			var failures atomic.Int64
			// fail reports a violation; a broken engine produces thousands a
			// second, so the run ends after the first few.
			fail := func(format string, args ...any) {
				if failures.Add(1) <= 5 {
					t.Errorf(format, args...)
				}
				stop.Store(true)
			}

			// check holds one observation of hot key i against the version
			// acknowledged before the read and the one started by its end.
			check := func(op string, i int, pre, post uint64, present bool, val []byte) {
				if !present {
					if deletable := flickers(i) && (pre%2 == 0 || post > pre); !deletable {
						fail("%s: %s missing (version %d acknowledged before, %d started by the end)", op, hotKey(i), pre, post)
					}
					return
				}
				f := strings.Split(string(val), "#") // key#version#padding
				v, err := strconv.ParseUint(f[min(1, len(f)-1)], 10, 64)
				if len(f) != 3 || err != nil || f[0] != hotKey(i) {
					fail("%s: %s holds %q", op, hotKey(i), val)
					return
				}
				if v < pre {
					fail("%s: %s at version %d, but %d was acknowledged before the read", op, hotKey(i), v, pre)
				}
				if v > post || (flickers(i) && v%2 == 0) {
					fail("%s: %s at impossible version %d (%d started by the end of the read)", op, hotKey(i), v, post)
				}
			}

			var wg sync.WaitGroup
			var reads, writes atomic.Int64
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w) + 1))
					for !stop.Load() {
						i := rng.Intn(hot/writers)*writers + w // keys ≡ w (mod writers) are ours
						k := []byte(hotKey(i))
						v := acked[i].Load() + 1
						started[i].Store(v)
						var err error
						if flickers(i) && v%2 == 0 {
							err = db.Delete(k)
						} else {
							err = db.Put(k, value(hotKey(i), v))
						}
						if errors.Is(err, lsm.ErrClosed) {
							return
						}
						if err != nil {
							fail("write %s: %v", k, err)
							return
						}
						acked[i].Store(v)
						writes.Add(1)
					}
				}()
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(r) + 100))
					pre, post := make([]uint64, hot), make([]uint64, hot)
					for !stop.Load() {
						reads.Add(1)
						i := rng.Intn(hot)
						if rng.Intn(2) == 0 {
							p := acked[i].Load()
							v, ok, err := db.Get([]byte(hotKey(i)))
							if errors.Is(err, lsm.ErrClosed) {
								return
							}
							if err != nil {
								fail("get: %v", err)
								return
							}
							check("get", i, p, started[i].Load(), ok, v)
							continue
						}
						n := 1 + rng.Intn(maxScan)
						for j := i; j < hot; j++ {
							pre[j] = acked[j].Load()
						}
						kvs, err := db.Scan([]byte(hotKey(i)), n)
						if errors.Is(err, lsm.ErrClosed) {
							return
						}
						if err != nil {
							fail("scan: %v", err)
							return
						}
						for j := i; j < hot; j++ {
							post[j] = started[j].Load()
						}
						if len(kvs) != n {
							fail("scan(%s, %d) returned %d pairs", hotKey(i), n, len(kvs))
							return
						}
						// Every hot key from the start to the last pair
						// returned is either in the result or deletable.
						op := fmt.Sprintf("scan(%s, %d)", hotKey(i), n)
						last := string(kvs[n-1].Key)
						at := 0
						for j := i; j < hot && hotKey(j) <= last; j++ {
							present := at < n && string(kvs[at].Key) == hotKey(j)
							var val []byte
							if present {
								val = kvs[at].Value
								at++
							}
							check(op, j, pre[j], post[j], present, val)
						}
						for j := 0; at < n; at, j = at+1, j+1 { // the rest is tail, in order
							if want := fmt.Sprintf("t%02d", j); string(kvs[at].Key) != want {
								fail("%s: pair %d is %s, want %s", op, at, kvs[at].Key, want)
							}
						}
					}
				}()
			}

			for end := time.Now().Add(duration); !stop.Load() && time.Now().Before(end); {
				time.Sleep(10 * time.Millisecond)
			}
			m := db.Metrics()
			if err := db.Close(); err != nil {
				t.Errorf("Close amid reads and writes: %v", err)
			}
			stop.Store(true)
			wg.Wait()
			t.Logf("%d reads, %d writes, %d flushes, %d compactions, admissions skipped as stale: %d point, %d scan",
				reads.Load(), writes.Load(), m.Flushes, m.Compactions,
				m.AdmissionsSkippedStalePoint, m.AdmissionsSkippedStaleScan)
			if m.Flushes < 2 {
				t.Errorf("only %d flushes: the memtable never rotated under the readers", m.Flushes)
			}
		})
	}
}
