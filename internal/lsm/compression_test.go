package lsm

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"adcache/internal/cache/lru"
	"adcache/internal/metrics"
	"adcache/internal/vfs"
)

// compressibleValue returns a value with a repetitive body plus a unique
// tag — the shape real payloads have, and one flate visibly shrinks.
func compressibleValue(i int) []byte {
	return append([]byte(fmt.Sprintf("val%08d-", i)), bytes.Repeat([]byte("abcdefgh"), 24)...)
}

// TestDBCompressionRoundTrip writes, flushes, compacts and reopens a
// flate-compressed store and demands the same answers as an uncompressed
// one, with physically smaller tables.
func TestDBCompressionRoundTrip(t *testing.T) {
	const n = 1200
	run := func(compression Compression) (*DB, vfs.FS) {
		fs := vfs.NewMem()
		opts := DefaultOptions("db")
		opts.FS = fs
		opts.MemTableSize = 32 << 10
		opts.TargetFileSize = 16 << 10
		opts.InlineCompaction = true
		opts.Compression = compression
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := db.Put(key(i), compressibleValue(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		return db, fs
	}
	dbNone, _ := run(CompressionNone)
	defer dbNone.Close()
	dbFlate, flateFS := run(CompressionFlate)

	sizeNone := dbNone.Metrics().TotalBytes
	sizeFlate := dbFlate.Metrics().TotalBytes
	if sizeFlate >= sizeNone {
		t.Fatalf("flate tables (%d bytes) not smaller than uncompressed (%d bytes)",
			sizeFlate, sizeNone)
	}

	check := func(db *DB, label string) {
		t.Helper()
		for _, i := range []int{0, 1, n / 3, n - 1} {
			v, ok, err := db.Get(key(i))
			if err != nil || !ok || !bytes.Equal(v, compressibleValue(i)) {
				t.Fatalf("%s: Get(%d) = %q ok=%v err=%v", label, i, v, ok, err)
			}
		}
		kvs, err := db.Scan(key(100), 50)
		if err != nil || len(kvs) != 50 {
			t.Fatalf("%s: Scan = %d entries, %v", label, len(kvs), err)
		}
		for j, kv := range kvs {
			if !bytes.Equal(kv.Key, key(100+j)) || !bytes.Equal(kv.Value, compressibleValue(100+j)) {
				t.Fatalf("%s: scan entry %d = %s", label, j, kv.Key)
			}
		}
	}
	check(dbNone, "none")
	check(dbFlate, "flate")

	// Reopen the compressed store: recovery reads the same trailers.
	if err := dbFlate.Close(); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions("db")
	opts.FS = flateFS
	opts.Compression = CompressionFlate
	opts.InlineCompaction = true
	reopened, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if _, err := reopened.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity after reopen: %v", err)
	}
	check(reopened, "reopened")
}

// TestDBCompressionWithBlockCache runs the compressed store with a real
// block-cache strategy and checks physical-byte charging end to end: the
// cache's resident bytes stay below what the blocks decode to.
func TestDBCompressionWithBlockCache(t *testing.T) {
	bc := lru.NewBlockCache(1 << 20)
	strategy := &blockOnlyStrategy{cache: bc}
	opts := DefaultOptions("db")
	opts.FS = vfs.NewMem()
	opts.MemTableSize = 32 << 10
	opts.InlineCompaction = true
	opts.Compression = CompressionFlate
	opts.Strategy = strategy
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 800
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), compressibleValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if v, ok, err := db.Get(key(i)); err != nil || !ok || !bytes.Equal(v, compressibleValue(i)) {
			t.Fatalf("Get(%d): ok=%v err=%v", i, ok, err)
		}
	}
	st := bc.Stats()
	physical, logical := st.Used, st.LogicalUsed
	if physical == 0 || logical == 0 {
		t.Fatalf("cache not populated: physical=%d logical=%d", physical, logical)
	}
	if physical >= logical {
		t.Fatalf("physical bytes %d not below logical %d for compressed blocks",
			physical, logical)
	}
}

func TestIOLimiterAccumulatesStall(t *testing.T) {
	var nilLimiter *ioLimiter
	nilLimiter.wait(1 << 30) // must be a no-op, not a panic

	var stallNanos metrics.Counter
	l := newIOLimiter(1<<20, &stallNanos) // 1 MiB/s
	start := time.Now()
	l.wait(1 << 20) // drains the initial second of budget
	l.wait(512 << 10)
	elapsed := time.Since(start)
	if stall := stallNanos.Value(); stall == 0 {
		t.Fatal("overdraft did not accumulate stall time")
	} else if elapsed < time.Duration(stall)/2 {
		t.Fatalf("reported %v stall but only %v elapsed", time.Duration(stall), elapsed)
	}
}

// TestBgIORateLimitThrottlesFlush opens a store with a tight background
// budget and checks that flushing reports stall time in Metrics.
func TestBgIORateLimitThrottlesFlush(t *testing.T) {
	opts := DefaultOptions("db")
	opts.FS = vfs.NewMem()
	opts.MemTableSize = 8 << 20 // no incidental flushes: Flush below is the write
	opts.InlineCompaction = true
	// The bucket holds a one-second burst (2 MiB); flushing ~2.8 MiB must
	// overdraft it and sleep the difference off.
	opts.BgIOBytesPerSec = 2 << 20
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	value := bytes.Repeat([]byte("x"), 2048)
	for i := 0; i < 1400; i++ {
		if err := db.Put(key(i), value); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if stall := db.Metrics().BgIOStallNanos; stall == 0 {
		t.Fatal("background writes were never throttled")
	}
}
