package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"adcache/internal/vfs"
)

// subcompactOptions is a configuration that forces deep, multi-file
// compactions so the range splitter produces several shards: tiny memtables
// and output files, deterministic inline compaction triggers.
func subcompactOptions(fs vfs.FS, parallelism int) Options {
	opts := DefaultOptions("testdb")
	opts.FS = fs
	opts.InlineCompaction = true
	opts.compactionParallelism = parallelism
	opts.MemTableSize = 8 << 10
	opts.TargetFileSize = 8 << 10
	opts.L1TargetSize = 16 << 10
	return opts
}

// applySubcompactWorkload drives a seeded stream of overwrites and deletes
// wide enough that every run compacts several times, and returns the model
// of the live contents.
func applySubcompactWorkload(t *testing.T, db *DB) map[string]string {
	t.Helper()
	model := map[string]string{}
	rng := rand.New(rand.NewSource(42))
	for op := 0; op < 6000; op++ {
		k := fmt.Sprintf("key%05d", rng.Intn(2000))
		if rng.Intn(10) == 0 {
			if err := db.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		} else {
			v := fmt.Sprintf("value%08d-%08d", op, rng.Intn(1<<30))
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		}
	}
	return model
}

func dumpAll(t *testing.T, db *DB) []KV {
	t.Helper()
	kvs, err := db.Scan(nil, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return kvs
}

// TestSubcompactionEquivalence checks that the same workload produces
// identical logical contents at parallelism 1, 2 and 8, that every run
// passes the integrity check (sorted, non-overlapping levels), and that the
// parallel runs actually executed multi-shard compactions.
func TestSubcompactionEquivalence(t *testing.T) {
	type result struct {
		kvs            []KV
		compactions    int64
		subcompactions int64
	}
	run := func(parallelism int) result {
		db := mustOpen(t, subcompactOptions(vfs.NewMem(), parallelism))
		defer db.Close()
		model := applySubcompactWorkload(t, db)
		if err := db.Compact(); err != nil {
			t.Fatalf("parallelism=%d: Compact: %v", parallelism, err)
		}
		kvs := dumpAll(t, db)
		if len(kvs) != len(model) {
			t.Fatalf("parallelism=%d: dump has %d keys, model %d",
				parallelism, len(kvs), len(model))
		}
		for _, kv := range kvs {
			if model[string(kv.Key)] != string(kv.Value) {
				t.Fatalf("parallelism=%d: %s = %q, model %q",
					parallelism, kv.Key, kv.Value, model[string(kv.Key)])
			}
		}
		if _, err := db.VerifyIntegrity(); err != nil {
			t.Fatalf("parallelism=%d: VerifyIntegrity: %v", parallelism, err)
		}
		m := db.Metrics()
		return result{kvs, m.Compactions, m.Subcompactions}
	}

	serial := run(1)
	if serial.compactions == 0 {
		t.Fatal("workload did not trigger any compaction")
	}
	if serial.subcompactions != serial.compactions {
		t.Fatalf("serial run: %d subcompactions for %d compactions, want equal",
			serial.subcompactions, serial.compactions)
	}
	for _, p := range []int{2, 8} {
		par := run(p)
		if len(par.kvs) != len(serial.kvs) {
			t.Fatalf("parallelism=%d: %d keys, serial %d", p, len(par.kvs), len(serial.kvs))
		}
		for i := range par.kvs {
			if !bytes.Equal(par.kvs[i].Key, serial.kvs[i].Key) ||
				!bytes.Equal(par.kvs[i].Value, serial.kvs[i].Value) {
				t.Fatalf("parallelism=%d: entry %d: %s=%s, serial %s=%s", p, i,
					par.kvs[i].Key, par.kvs[i].Value, serial.kvs[i].Key, serial.kvs[i].Value)
			}
		}
		if par.subcompactions <= par.compactions {
			t.Fatalf("parallelism=%d: %d subcompactions for %d compactions — no compaction split",
				p, par.subcompactions, par.compactions)
		}
	}
}

// TestSerialCompactionDeterministic checks that parallelism 1 under
// InlineCompaction remains byte-for-byte deterministic: two runs of the same
// workload leave identical files on disk. This is the property the parallel
// default is gated on (and why InlineCompaction defaults to parallelism 1).
func TestSerialCompactionDeterministic(t *testing.T) {
	snapshot := func() map[string][]byte {
		fs := vfs.NewMem()
		db := mustOpen(t, subcompactOptions(fs, 1))
		applySubcompactWorkload(t, db)
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		names, err := fs.List("testdb")
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, name := range names {
			f, err := fs.Open("testdb/" + name)
			if err != nil {
				t.Fatal(err)
			}
			size, _ := f.Size()
			buf := make([]byte, size)
			if _, err := f.ReadAt(buf, 0); err != nil && size > 0 {
				t.Fatal(err)
			}
			f.Close()
			files[name] = buf
		}
		return files
	}
	a, b := snapshot(), snapshot()
	if len(a) != len(b) {
		t.Fatalf("runs left different file sets: %d vs %d files", len(a), len(b))
	}
	for name, data := range a {
		other, ok := b[name]
		if !ok {
			t.Fatalf("file %s missing from second run", name)
		}
		if !bytes.Equal(data, other) {
			t.Fatalf("file %s differs between runs (%d vs %d bytes)", name, len(data), len(other))
		}
	}
}

// TestSubcompactionFaultLeavesNoOrphans injects a write failure mid-
// compaction and checks that (a) the error surfaces, (b) the failing shard's
// siblings are cancelled and every partial output file is deleted — the disk
// holds only files referenced by the installed version — and (c) after the
// fault clears the same compaction succeeds with intact contents.
func TestSubcompactionFaultLeavesNoOrphans(t *testing.T) {
	ffs := vfs.NewFault(vfs.NewMem())
	opts := subcompactOptions(ffs, 4)
	opts.disableAutoCompaction = true
	db := mustOpen(t, opts)
	defer db.Close()

	model := map[string]string{}
	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 4000; op++ {
		k := fmt.Sprintf("key%05d", rng.Intn(1500))
		v := fmt.Sprintf("value%08d", op)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	ffs.FailAfterWrites(2)
	err := db.Compact()
	ffs.Reset()
	if err == nil {
		t.Fatal("Compact succeeded despite injected write failure")
	}
	if err == errCompactionAborted {
		t.Fatal("Compact reported the sibling-abort sentinel instead of the root cause")
	}

	// Every .sst on disk must be referenced by the current version: the
	// failed compaction installed nothing and deleted all partial outputs.
	referenced := map[uint64]bool{}
	db.mu.RLock()
	for _, level := range db.version.Levels {
		for _, f := range level {
			referenced[f.FileNum] = true
		}
	}
	db.mu.RUnlock()
	names, lerr := ffs.List(opts.Dir)
	if lerr != nil {
		t.Fatal(lerr)
	}
	for _, name := range names {
		typ, num := parseFileName(name)
		if typ == "sst" && !referenced[num] {
			t.Fatalf("orphan SST %s left behind by failed compaction", name)
		}
	}

	// The fault cleared: the retried compaction succeeds and loses nothing.
	if err := db.Compact(); err != nil {
		t.Fatalf("Compact after fault cleared: %v", err)
	}
	kvs := dumpAll(t, db)
	if len(kvs) != len(model) {
		t.Fatalf("retried compaction: %d keys, model %d", len(kvs), len(model))
	}
	for _, kv := range kvs {
		if model[string(kv.Key)] != string(kv.Value) {
			t.Fatalf("retried compaction: %s = %q, model %q", kv.Key, kv.Value, model[string(kv.Key)])
		}
	}
	if _, err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity after retry: %v", err)
	}
}
