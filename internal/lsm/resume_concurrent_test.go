package lsm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adcache/internal/vfs"
)

// TestResumeUnderConcurrentWriters drives Resume while writer goroutines
// are hammering the DB: writers must fail fast with ErrReadOnly during
// degraded mode (never hang, never silently drop), concurrent Resume
// calls must be safe, and after recovery every acknowledged write — each
// key is written exactly once — must read back exactly once with its
// acked value. This is the /v1/health "degraded" lifecycle as the engine
// sees it: park, operator resume, service restored mid-traffic.
func TestResumeUnderConcurrentWriters(t *testing.T) {
	fault := vfs.NewFault(vfs.NewMem())
	opts := fastRetryOpts(fault)
	opts.bgMaxRetries = 2
	db := mustOpen(t, opts)
	defer db.Close()

	// Park the DB read-only: a persistent create fault exhausts the
	// background retry budget.
	fault.Target(".sst")
	fault.FailCreates(1000)
	fillMemTable(t, db, 0)
	waitForMetrics(t, db, "read-only escalation", func(m Metrics) bool {
		return m.BgState == "read-only"
	})

	const writers = 8
	var (
		wg           sync.WaitGroup
		mu           sync.Mutex
		acked        = make(map[string]string) // unique keys: written at most once each
		okWrites     atomic.Int64
		readOnlyErrs atomic.Int64
		unexpected   error // first non-ErrReadOnly failure, guarded by mu
		stop         = make(chan struct{})
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("w%d-%06d", w, i)
				v := fmt.Sprintf("v%d-%06d", w, i)
				switch err := db.Put([]byte(k), []byte(v)); {
				case err == nil:
					mu.Lock()
					acked[k] = v
					mu.Unlock()
					okWrites.Add(1)
				case errors.Is(err, ErrReadOnly):
					readOnlyErrs.Add(1)
					time.Sleep(100 * time.Microsecond) // don't spin the scheduler flat
				default:
					mu.Lock()
					if unexpected == nil {
						unexpected = err
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}

	// Let the writers observe the parked state, then heal the device and
	// resume from several goroutines at once — operators and health-check
	// automation may both call it; racing Resumes must be safe.
	deadline := time.Now().Add(10 * time.Second)
	for readOnlyErrs.Load() < int64(writers) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if readOnlyErrs.Load() == 0 {
		t.Fatal("no writer observed ErrReadOnly while parked")
	}
	fault.Reset()
	var resumeOK atomic.Int64
	var rwg sync.WaitGroup
	for i := 0; i < 3; i++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			if err := db.Resume(); err == nil {
				resumeOK.Add(1)
			}
		}()
	}
	rwg.Wait()
	if resumeOK.Load() == 0 {
		t.Fatal("no Resume call succeeded after the fault was cleared")
	}

	// Writers must make real progress post-resume before we stop them.
	base := okWrites.Load()
	for okWrites.Load() < base+2000 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	mu.Lock()
	failErr := unexpected
	mu.Unlock()
	if failErr != nil {
		t.Fatalf("writer got a non-ErrReadOnly failure: %v", failErr)
	}
	if got := okWrites.Load(); got < base+2000 {
		t.Fatalf("writers made no progress after Resume: %d acked post-resume", got-base)
	}

	m := waitForMetrics(t, db, "post-resume health", func(m Metrics) bool {
		return m.BgState == "healthy" && m.ImmMemTables == 0
	})
	if m.Resumes < 1 {
		t.Fatalf("Resumes = %d, want >= 1", m.Resumes)
	}
	t.Logf("acked=%d readonly-rejections=%d resumes=%d", okWrites.Load(), readOnlyErrs.Load(), m.Resumes)

	// Every acked write survived, exactly as acked — each key was written
	// once, so any mismatch is a lost or duplicated/corrupted ack.
	mu.Lock()
	defer mu.Unlock()
	for k, want := range acked {
		v, ok, err := db.Get([]byte(k))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("acked key %s = %q ok=%v err=%v, want %q", k, v, ok, err, want)
		}
	}
	if _, err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity after resume under load: %v", err)
	}
}
