package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"adcache/internal/cache/lru"
	"adcache/internal/keys"
	"adcache/internal/sstable"
	"adcache/internal/vfs"
)

// scanModel is the sorted-map reference for the differential test: every
// write with its sequence number, so a read at any snapshot is defined.
type scanModel struct {
	versions map[string][]modelVersion // oldest first
}

type modelVersion struct {
	seq     uint64
	deleted bool
	value   []byte
}

func (m *scanModel) write(k string, seq uint64, deleted bool, v []byte) {
	m.versions[k] = append(m.versions[k], modelVersion{seq, deleted, v})
}

// scan returns the live pairs in [start, end) visible at seq, up to limit.
func (m *scanModel) scan(start, end []byte, limit int, seq uint64) []KV {
	var ks []string
	for k := range m.versions {
		if k >= string(start) && (end == nil || k < string(end)) {
			ks = append(ks, k)
		}
	}
	sort.Strings(ks)
	var out []KV
	for _, k := range ks {
		vs := m.versions[k]
		for i := len(vs) - 1; i >= 0; i-- {
			if vs[i].seq <= seq {
				if !vs[i].deleted {
					out = append(out, KV{Key: []byte(k), Value: vs[i].value})
				}
				break
			}
		}
		if len(out) == limit {
			break
		}
	}
	return out
}

// scanAt runs the engine's scan stack at an explicit snapshot: the same
// builder and stop rule as DB.scan, with seq chosen by the caller.
func scanAt(db *DB, start, end []byte, limit int, seq uint64) ([]KV, error) {
	snap, err := db.pinSnapshot()
	if err != nil {
		return nil, err
	}
	defer db.releaseVersion(snap.h)
	snap.seq = seq
	rs := db.getReadState()
	defer db.putReadState(rs)
	rs.stats.ScanRemaining = int64(limit)
	vi := db.buildIter(rs, &snap, start, end)
	var out []KV
	for ok := vi.SeekGE(start); ok; ok = vi.Next() {
		if vi.Deleted() {
			continue
		}
		if end != nil && bytes.Compare(vi.UserKey(), end) >= 0 {
			break
		}
		out = append(out, KV{Key: bytes.Clone(vi.UserKey()), Value: bytes.Clone(vi.Value())})
		if len(out) == limit {
			break
		}
		rs.stats.ScanRemaining = int64(limit - len(out))
	}
	return out, vi.Err()
}

func sameKVs(a, b []KV) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// TestScanDifferential builds seeded random trees — several levels below
// overlapping L0 files below a live memtable, with tombstones and
// multi-version keys — and demands that Scan, ScanRange, the streamed
// Iterator and reads at older snapshots return exactly what a sorted-map
// model returns, from starts below, inside and above every run and for
// limits from 1 to 200; on the ReadAt path (MemFS, coalesced reads) and the
// mmap path (OSFS), uncompressed and compressed.
func TestScanDifferential(t *testing.T) {
	type fsCase struct {
		name string
		make func(t *testing.T) (vfs.FS, string)
	}
	fss := []fsCase{
		{"mem-readat", func(*testing.T) (vfs.FS, string) { return vfs.NewMem(), "db" }},
		{"os-mmap", func(t *testing.T) (vfs.FS, string) { return vfs.NewOS(), filepath.Join(t.TempDir(), "db") }},
	}
	for _, fc := range fss {
		for _, comp := range []sstable.Compression{sstable.CompressionNone, sstable.CompressionFlate} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", fc.name, comp, seed), func(t *testing.T) {
					fs, dir := fc.make(t)
					differentialRun(t, fs, dir, comp, seed)
				})
			}
		}
	}
}

func differentialRun(t *testing.T, fs vfs.FS, dir string, comp sstable.Compression, seed int64) {
	opts := DefaultOptions(dir)
	opts.FS = fs
	opts.Compression = comp
	opts.blockSize = 512
	opts.MemTableSize = 8 << 10
	opts.TargetFileSize = 8 << 10
	opts.L1TargetSize = 16 << 10
	opts.disableAutoCompaction = true
	// A cache small enough to evict: hits, misses and refills interleave,
	// and a block admitted from a span must survive the span's reuse.
	opts.Strategy = &blockOnlyStrategy{cache: lru.NewBlockCache(24 << 10)}
	db := mustOpen(t, opts)
	defer db.Close()

	rng := rand.New(rand.NewSource(seed))
	model := &scanModel{versions: map[string][]modelVersion{}}
	const keySpace = 700
	apply := func(n int) {
		for i := 0; i < n; i++ {
			k := key(rng.Intn(keySpace))
			var err error
			deleted := rng.Intn(7) == 0
			var v []byte
			if deleted {
				err = db.Delete(k)
			} else {
				v = make([]byte, 8+rng.Intn(120))
				for j := range v {
					v[j] = byte('a' + rng.Intn(26))
				}
				err = db.Put(k, v)
			}
			if err != nil {
				t.Fatal(err)
			}
			db.mu.RLock()
			seq := db.lastSeq
			db.mu.RUnlock()
			model.write(string(k), seq, deleted, v)
		}
	}
	lastSeq := func() uint64 {
		db.mu.RLock()
		defer db.mu.RUnlock()
		return db.lastSeq
	}

	// Deep levels: compaction keeps only the newest version of each key,
	// so snapshots are defined from here on.
	apply(2500)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	snapshots := []uint64{lastSeq()}
	// Overlapping L0 files over them, each holding every version it saw.
	for round := 0; round < 3; round++ {
		apply(120)
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		snapshots = append(snapshots, lastSeq())
	}
	apply(60) // and a live memtable
	snapshots = append(snapshots, lastSeq())

	m := db.Metrics()
	if m.L0Files < 3 || m.NonEmptyLevels < 3 {
		t.Fatalf("tree too flat for the test: L0=%d levels=%d files=%v", m.L0Files, m.NonEmptyLevels, m.LevelFiles)
	}
	if _, ok := fs.(vfs.OSFS); ok {
		// The mmap leg must really be on the no-copy path.
		before := db.Metrics().SSTReadCalls
		if _, err := db.Scan(key(0), 64); err != nil {
			t.Fatal(err)
		}
		if db.Metrics().SSTReadCalls == before {
			t.Fatal("OSFS scan issued no table reads")
		}
	}

	// Starts: below everything, above everything, and at, just below and
	// just above both ends of every file of every run.
	starts := [][]byte{nil, []byte("a"), []byte("zzz"), key(keySpace / 2)}
	db.mu.RLock()
	for _, level := range db.version.Levels {
		for _, f := range level {
			for _, uk := range [][]byte{f.Smallest.UserKey(), f.Largest.UserKey()} {
				starts = append(starts, bytes.Clone(uk), append(bytes.Clone(uk), 0),
					append(bytes.Clone(uk[:len(uk)-1]), uk[len(uk)-1]-1, 0xff))
			}
		}
	}
	db.mu.RUnlock()
	limits := []int{1, 2, 7, 16, 64, 200}

	for si, start := range starts {
		limit := limits[si%len(limits)]
		var end []byte
		if si%3 == 1 {
			end = key(rng.Intn(keySpace))
		}
		for _, seq := range snapshots {
			got, err := scanAt(db, start, end, limit, seq)
			if err != nil {
				t.Fatalf("scanAt(%q, %q, %d, seq %d): %v", start, end, limit, seq, err)
			}
			if want := model.scan(start, end, limit, seq); !sameKVs(got, want) {
				t.Fatalf("scanAt(%q, %q, %d, seq %d): got %d pairs, want %d (first got %v)",
					start, end, limit, seq, len(got), len(want), firstKey(got))
			}
		}
		latest := snapshots[len(snapshots)-1]
		want := model.scan(start, end, limit, latest)
		var got []KV
		var err error
		if end == nil {
			got, err = db.Scan(start, limit)
		} else {
			got, err = db.ScanRange(start, end, limit)
		}
		if err != nil || !sameKVs(got, want) {
			t.Fatalf("Scan(%q, %q, %d): err=%v, got %d pairs, want %d", start, end, limit, err, len(got), len(want))
		}
		if end != nil {
			all, err := db.ScanRange(start, end, 0)
			if want := model.scan(start, end, -1, latest); err != nil || !sameKVs(all, want) {
				t.Fatalf("ScanRange(%q, %q, unbounded): err=%v, got %d pairs, want %d", start, end, err, len(all), len(want))
			}
		}

		it, err := db.NewIter()
		if err != nil {
			t.Fatal(err)
		}
		got = got[:0]
		for ok := it.SeekGE(start); ok && len(got) < limit; ok = it.Next() {
			got = append(got, KV{Key: bytes.Clone(it.Key()), Value: bytes.Clone(it.Value())})
		}
		err = it.Err()
		it.Close()
		if want := model.scan(start, nil, limit, latest); err != nil || !sameKVs(got, want) {
			t.Fatalf("Iterator from %q x%d: err=%v, got %d pairs, want %d", start, limit, err, len(got), len(want))
		}
	}

	// A full compaction reads every run through the windowed iterators and
	// must leave the same contents.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	latest := snapshots[len(snapshots)-1]
	got, err := db.Scan(nil, keySpace)
	if want := model.scan(nil, nil, keySpace, latest); err != nil || !sameKVs(got, want) {
		t.Fatalf("after compaction: err=%v, got %d pairs, want %d", err, len(got), len(want))
	}
}

func firstKey(kvs []KV) string {
	if len(kvs) == 0 {
		return "<none>"
	}
	return string(kvs[0].Key)
}

// bulkLoaded returns a store loaded with n sequential keys as a bulk load
// leaves it: several levels and, from the load's tail, two L0 files, all
// with disjoint key ranges.
func bulkLoaded(t *testing.T, n int) *DB {
	t.Helper()
	opts := testOptions(vfs.NewMem())
	db := mustOpen(t, opts)
	t.Cleanup(func() { db.Close() })
	tail := n - 200
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), bytes.Repeat([]byte("v"), 100)); err != nil {
			t.Fatal(err)
		}
		// The last flushes stay in L0: two files are below the trigger.
		if i == tail-1 || i == tail+99 || i == n-1 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestMissedScanReadCalls pins the scan I/O diet with a counting file
// system: on a bulk-loaded tree of at least four key-disjoint runs, a
// 16-entry scan that misses every cache costs at most two device reads —
// one coalesced read in the run that holds the range, a second only if the
// range straddles more blocks than predicted — and the other runs are
// parked, never opened. (One read per run, five or more, before lazy
// positioning.)
func TestMissedScanReadCalls(t *testing.T) {
	const n = 12000
	db := bulkLoaded(t, n)
	m := db.Metrics()
	if m.SortedRuns < 4 {
		t.Fatalf("bulk load left %d sorted runs (files per level %v), want >= 4", m.SortedRuns, m.LevelFiles)
	}
	// Open every table first: opening reads the footer, index and filter.
	db.mu.RLock()
	for _, level := range db.version.Levels {
		for _, f := range level {
			if _, err := db.tc.get(f.FileNum); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.mu.RUnlock()

	rng := rand.New(rand.NewSource(1))
	var calls, skipped, blocks int64
	const scans = 200
	for i := 0; i < scans; i++ {
		start := rng.Intn(n - 16)
		before := db.Metrics()
		reads := db.QueryBlockReads()
		kvs, err := db.Scan(key(start), 16)
		if err != nil || len(kvs) != 16 || !bytes.Equal(kvs[0].Key, key(start)) || !bytes.Equal(kvs[15].Key, key(start+15)) {
			t.Fatalf("Scan(%d, 16): err=%v, %d pairs", start, err, len(kvs))
		}
		after := db.Metrics()
		d := after.SSTReadCalls - before.SSTReadCalls
		if d > 2 {
			t.Fatalf("missed Scan-16 from %d issued %d device reads, want <= 2", start, d)
		}
		calls += d
		skipped += after.ScanLazySkippedRuns - before.ScanLazySkippedRuns
		blocks += db.QueryBlockReads() - reads
	}
	if mean := float64(calls) / scans; mean > 1.1 {
		t.Errorf("mean %.2f device reads per missed Scan-16, want about 1", mean)
	}
	if mean := float64(skipped) / scans; mean < float64(m.SortedRuns)-2 {
		t.Errorf("mean %.2f runs skipped per scan on a %d-run disjoint tree", mean, m.SortedRuns)
	}
	// QueryBlockReads keeps its meaning: blocks consumed, not device calls.
	if blocks < calls {
		t.Errorf("QueryBlockReads advanced by %d over %d device reads: it must count blocks", blocks, calls)
	}
}

// TestBoundedScanPrunes: ScanRange's end reaches the iterators. A tiny range
// with no count limit reads the blocks that hold it, not a limit-sized span
// and not the runs that start at or past end.
func TestBoundedScanPrunes(t *testing.T) {
	const n = 12000
	db := bulkLoaded(t, n)
	if _, err := db.Scan(key(0), n); err != nil { // open every table
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		start := rng.Intn(n - 5)
		before := db.Metrics()
		kvs, err := db.ScanRange(key(start), key(start+5), 0)
		if err != nil || len(kvs) != 5 {
			t.Fatalf("ScanRange of 5 keys from %d: err=%v, %d pairs", start, err, len(kvs))
		}
		after := db.Metrics()
		calls, bytesRead := after.SSTReadCalls-before.SSTReadCalls, after.SSTReadBytes-before.SSTReadBytes
		// 5 entries of ~130 bytes sit in at most two 4 KiB blocks.
		if calls > 2 || bytesRead > 3*4200 {
			t.Fatalf("5-key ScanRange from %d cost %d reads / %d bytes: end did not bound the scan", start, calls, bytesRead)
		}
	}
}

// TestCompactionReadCalls: compaction inputs are read in sequential windows,
// so N input bytes cost at most N/window reads plus one per input file.
func TestCompactionReadCalls(t *testing.T) {
	opts := testOptions(vfs.NewMem())
	opts.disableAutoCompaction = true
	opts.L1TargetSize = 64 << 20 // one L0->L1 compaction, no cascade
	opts.TargetFileSize = 256 << 10
	db := mustOpen(t, opts)
	defer db.Close()
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 4; round++ {
		for i := 0; i < 3000; i++ {
			if err := db.Put(key(rng.Intn(20000)), bytes.Repeat([]byte("v"), 100)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	db.mu.RLock()
	var files int64
	for _, f := range db.version.Levels[0] {
		files++
		if _, err := db.tc.get(f.FileNum); err != nil { // opens are not merge reads
			t.Fatal(err)
		}
	}
	db.mu.RUnlock()
	before := db.Metrics()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	after := db.Metrics()
	if after.Compactions-before.Compactions != 1 {
		t.Fatalf("want exactly one compaction, ran %d", after.Compactions-before.Compactions)
	}
	in := after.CompactedBytes - before.CompactedBytes
	calls := after.SSTReadCalls - before.SSTReadCalls
	if maxCalls := in/sstable.CompactionReadahead + files; calls > maxCalls {
		t.Fatalf("compacting %d bytes in %d files took %d reads, want <= %d (%d block by block)",
			in, files, calls, maxCalls, in/4096)
	}
}

// TestScanSurfacesCorruptPrefetchedBlock: at the engine level, a corrupt
// block inside a coalesced read fails the scan; it is never returned short.
func TestScanSurfacesCorruptPrefetchedBlock(t *testing.T) {
	fs := vfs.NewMem()
	opts := testOptions(fs)
	opts.disableAutoCompaction = true
	opts.MemTableSize = 1 << 20
	db := mustOpen(t, opts)
	defer db.Close()
	for i := 0; i < 2000; i++ {
		if err := db.Put(key(i), bytes.Repeat([]byte("v"), 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if kvs, err := db.Scan(key(0), 200); err != nil || len(kvs) != 200 {
		t.Fatalf("clean scan: err=%v, %d pairs", err, len(kvs))
	}
	db.mu.RLock()
	f := db.version.Levels[0][0]
	db.mu.RUnlock()
	file, err := fs.Open(sstPath(opts.Dir, f.FileNum))
	if err != nil {
		t.Fatal(err)
	}
	// Block size is 4 KiB: offset 10000 lies in the third block, which a
	// 200-entry scan from the first key prefetches with the first.
	if _, err := file.WriteAt([]byte{0xAA}, 10000); err != nil {
		t.Fatal(err)
	}
	kvs, err := db.Scan(key(0), 200)
	if !errors.Is(err, sstable.ErrCorrupt) {
		t.Fatalf("scan across a corrupt prefetched block returned %d pairs, err=%v", len(kvs), err)
	}
	// Short of the corrupt block the scan is unaffected.
	if kvs, err := db.Scan(key(0), 20); err != nil || len(kvs) != 20 {
		t.Fatalf("scan before the corrupt block: err=%v, %d pairs", err, len(kvs))
	}
}

// TestIteratorCloseObservesScanNanos: a streamed iterator's lifetime is
// recorded as a scan, so engine time spent under the server's scan handler
// is attributed to the engine.
func TestIteratorCloseObservesScanNanos(t *testing.T) {
	db := bulkLoaded(t, 2000)
	count := func() int64 { return db.metrics.scanNanos.Snapshot().Count }
	before := count()
	it, err := db.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	for ok := it.First(); ok; ok = it.Next() {
	}
	if count() != before {
		t.Fatal("iterator observed before Close")
	}
	it.Close()
	it.Close()
	if got := count() - before; got != 1 {
		t.Fatalf("lsm_scan_nanos observed %d times for one iterator, want 1", got)
	}
}

// TestLevelIterParksOnSmallest checks the lazy-positioning invariant
// directly: a parked run reports exactly the key First would have produced,
// without opening a file.
func TestLevelIterParksOnSmallest(t *testing.T) {
	db := bulkLoaded(t, 12000)
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, level := range db.version.Levels[1:] {
		if len(level) == 0 {
			continue
		}
		var l levelIter
		l.init(db.tc, level, nil, nil)
		before := db.tc.fs.Stats.ReadOps.Load()
		for i, f := range level {
			target := keys.MakeSearch(f.Smallest.UserKey(), keys.MaxSeq)
			if !l.Seek(target) || !l.parked || !bytes.Equal(l.Key(), f.Smallest) {
				t.Fatalf("Seek to the start of file %d did not park on its smallest key", i)
			}
		}
		if d := db.tc.fs.Stats.ReadOps.Load() - before; d != 0 {
			t.Fatalf("parking issued %d reads", d)
		}
		// Asking for the value opens the file on the same key.
		k := bytes.Clone(l.Key())
		if v := l.Value(); v == nil || l.parked || !bytes.Equal(l.Key(), k) || l.Err() != nil {
			t.Fatalf("unparking moved the iterator: key %q -> %q, err=%v", k, l.Key(), l.Err())
		}
		l.init(nil, nil, nil, nil)
	}
}
