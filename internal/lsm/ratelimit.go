package lsm

import (
	"sync"
	"time"

	"adcache/internal/metrics"
	"adcache/internal/vfs"
)

// ioLimiter is a token-bucket rate limiter for background (flush and
// compaction) writes, the RocksDB rate_limiter analogue. On a real disk
// unthrottled background work competes with foreground reads for device
// bandwidth; bounding it trades compaction latency for stable read tails.
//
// The bucket holds up to one second of budget so short bursts (a block plus
// its trailer) pass without sleeping, while sustained output converges on
// bytesPerSec. Stall time accumulates in the engine's
// lsm_bg_io_stall_nanos_total cell.
type ioLimiter struct {
	bytesPerSec int64

	mu     sync.Mutex
	tokens float64   // may go negative: the overdraft is slept off
	last   time.Time // last refill

	stallNanos *metrics.Counter
}

// newIOLimiter returns a limiter paced at bytesPerSec that books its stall
// time in stallNanos, or nil when bytesPerSec <= 0 (unlimited).
func newIOLimiter(bytesPerSec int64, stallNanos *metrics.Counter) *ioLimiter {
	if bytesPerSec <= 0 {
		return nil
	}
	return &ioLimiter{bytesPerSec: bytesPerSec, tokens: float64(bytesPerSec), last: time.Now(), stallNanos: stallNanos}
}

// wait charges n bytes against the bucket and sleeps off any overdraft.
// A nil limiter is a no-op, so call sites need no gating.
func (l *ioLimiter) wait(n int) {
	if l == nil || n <= 0 {
		return
	}
	l.mu.Lock()
	now := time.Now()
	l.tokens += now.Sub(l.last).Seconds() * float64(l.bytesPerSec)
	if max := float64(l.bytesPerSec); l.tokens > max {
		l.tokens = max
	}
	l.last = now
	l.tokens -= float64(n)
	var stall time.Duration
	if l.tokens < 0 {
		stall = time.Duration(-l.tokens / float64(l.bytesPerSec) * float64(time.Second))
	}
	l.mu.Unlock()
	if stall > 0 {
		l.stallNanos.Add(int64(stall))
		time.Sleep(stall)
	}
}

// limitFile wraps a background output file so every write pays the token
// bucket. Reads and metadata pass through untouched; foreground I/O never
// goes through this wrapper.
func limitFile(f vfs.File, l *ioLimiter) vfs.File {
	if l == nil {
		return f
	}
	return &limitedFile{File: f, l: l}
}

type limitedFile struct {
	vfs.File
	l *ioLimiter
}

func (f *limitedFile) Write(p []byte) (int, error) {
	f.l.wait(len(p))
	return f.File.Write(p)
}

func (f *limitedFile) WriteAt(p []byte, off int64) (int, error) {
	f.l.wait(len(p))
	return f.File.WriteAt(p, off)
}
