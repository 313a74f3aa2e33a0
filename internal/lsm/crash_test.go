package lsm

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adcache/internal/vfs"
)

// This file is the crash-consistency harness: a deterministic crash-point
// sweep (kill the device after every Nth FS operation, reopen, check the
// durability contract) plus seeded randomized crash/reopen stress. The
// contract under test: every write acknowledged after a WAL sync survives,
// batches are all-or-nothing, and recovery never errors or reports an
// inconsistent tree, no matter where the crash lands.

const crashKeyPool = 40

// crashOpts is the sweep's engine configuration: tiny tables so a short
// workload crosses many flush/compaction/manifest windows, inline compaction
// so the FS operation sequence is a deterministic function of the workload.
// dir parameterizes the database directory so the same harness runs on MemFS
// ("crashdb") and on a real directory via OSFS.
func crashOpts(fs vfs.FS, dir string) Options {
	opts := DefaultOptions(dir)
	opts.FS = fs
	opts.MemTableSize = 4 << 10
	opts.L1TargetSize = 8 << 10
	opts.TargetFileSize = 4 << 10
	opts.InlineCompaction = true
	opts.seed = 42
	return opts
}

// crashOp returns the j-th scripted workload operation: overwrites and
// deletes over a fixed key pool, with values fat enough to force flushes.
func crashOp(j int) (del bool, k, v []byte) {
	k = key(j % crashKeyPool)
	if j%13 == 12 {
		return true, k, nil
	}
	return false, k, crashValue(j)
}

func crashValue(j int) []byte {
	return []byte(fmt.Sprintf("val%08d-%s", j, strings.Repeat("x", 100)))
}

// crashScript is a scripted workload: ops operations op(0)..op(ops-1) over
// the keys key(0)..key(pool-1).
type crashScript struct {
	name      string
	ops, pool int
	op        func(j int) (del bool, k, v []byte)
	// moves: the uninterrupted run must execute compactions as moves.
	moves bool
	// flushEvery > 0 runs the background engine instead, with a memtable
	// no op fills, and calls Flush after every flushEvery ops: each seal
	// switches to a log prepared ahead of it, and the next preparation's
	// create and EditSeal land among the flush's own operations.
	flushEvery int
}

var crashScripts = []crashScript{
	{name: "mixed", ops: 150, pool: crashKeyPool, op: crashOp},
	// An ordered load: its tables overlap nothing, so its compactions are
	// moves, and a crash lands inside or around each move's one edit.
	{name: "ordered", ops: 200, pool: 200, moves: true, op: func(j int) (bool, []byte, []byte) {
		return false, key(j), crashValue(j)
	}},
	// Crash points land between a prepared log's EditSeal and the seal
	// that switches to it, and after that seal, while the log fills.
	{name: "prepared", ops: 150, pool: crashKeyPool, op: crashOp, flushEvery: 20},
}

// runCrashWorkload opens a DB on fs and applies the script, tracking the
// model of acknowledged state. failedAt is the index of the op that
// observed the crash (-1 if none, -2 if Open itself crashed). The model
// contains only acked ops: op failedAt may or may not have applied. moves is
// the number of moves the DB made before it closed or crashed.
func runCrashWorkload(fs vfs.FS, dir string, s crashScript) (model map[string]string, failedAt int, moves int64) {
	model = map[string]string{}
	opts := crashOpts(fs, dir)
	if s.flushEvery > 0 {
		opts.InlineCompaction = false
		opts.MemTableSize = 1 << 20
	}
	db, err := Open(opts)
	if err != nil {
		return model, -2, 0
	}
	defer db.Close() // may crash mid-close; everything acked is already synced
	for j := 0; j < s.ops; j++ {
		del, k, v := s.op(j)
		if del {
			err = db.Delete(k)
		} else {
			err = db.Put(k, v)
		}
		if err != nil {
			return model, j, db.Metrics().Moves // device is gone; errors here are expected
		}
		if del {
			delete(model, string(k))
		} else {
			model[string(k)] = string(v)
		}
		if s.flushEvery > 0 && (j+1)%s.flushEvery == 0 {
			if err := db.Flush(); err != nil {
				return model, -1, db.Metrics().Moves // every op so far was acked
			}
		}
	}
	return model, -1, db.Metrics().Moves
}

// verifyCrashRecovery reopens the post-crash file system and asserts the
// durability contract against the acked model: every table the recovered
// manifest lists exists and passes the integrity check, every acked key
// reads back, and the one log left is the reopened engine's own — every
// log the crash left, prepared and empty or not, was replayed and retired
// or removed as an orphan. The op in flight at the crash (if any) is allowed to have
// either fully applied or not at all — never half-applied, which the
// integrity check and value comparison would catch.
func verifyCrashRecovery(t *testing.T, fs vfs.FS, dir string, s crashScript, model map[string]string, failedAt int) {
	t.Helper()
	db, err := Open(crashOpts(fs, dir))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db.Close()
	// VerifyIntegrity opens and reads every table the manifest lists.
	if _, err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity after crash: %v", err)
	}
	names, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var logs []string
	for _, n := range names {
		if strings.HasSuffix(n, ".log") {
			logs = append(logs, n)
		}
	}
	if len(logs) != 1 {
		t.Fatalf("logs after reopen: %v, want only the active one", logs)
	}
	var exemptKey string
	var exemptDel bool
	var exemptVal string
	if failedAt >= 0 {
		del, k, v := s.op(failedAt)
		exemptKey, exemptDel, exemptVal = string(k), del, string(v)
	}
	for i := 0; i < s.pool; i++ {
		k := key(i)
		got, ok, err := db.Get(k)
		if err != nil {
			t.Fatalf("Get(%s) after crash: %v", k, err)
		}
		want, inModel := model[string(k)]
		if string(k) == exemptKey {
			oldOK := (inModel && ok && string(got) == want) || (!inModel && !ok)
			newOK := (!exemptDel && ok && string(got) == exemptVal) || (exemptDel && !ok)
			if !oldOK && !newOK {
				t.Fatalf("in-flight key %s half-applied: got %q ok=%v (old: %q in=%v, attempted del=%v val=%q)",
					k, got, ok, want, inModel, exemptDel, exemptVal)
			}
			continue
		}
		if inModel != ok {
			t.Fatalf("key %s: present=%v, acked model says present=%v", k, ok, inModel)
		}
		if ok && string(got) != want {
			t.Fatalf("key %s: got %q, acked %q", k, got, want)
		}
	}
}

// countCrashWorkloadOps runs the script uninterrupted to learn how many FS
// operations the full run performs — the sweep's domain.
func countCrashWorkloadOps(t *testing.T, s crashScript) int64 {
	t.Helper()
	cfs := vfs.NewCrash(vfs.NewMem())
	_, failedAt, moves := runCrashWorkload(cfs, "crashdb", s)
	if failedAt != -1 {
		t.Fatalf("unarmed workload reported crash at op %d", failedAt)
	}
	if s.moves && moves == 0 {
		t.Fatal("the workload made no move")
	}
	total := cfs.OpCount()
	if total < 100 {
		t.Fatalf("workload performed only %d FS ops; sweep would be trivial", total)
	}
	return total
}

// TestCrashPointSweep kills the simulated device after every Nth durable FS
// operation of each scripted workload — covering WAL appends and syncs,
// SSTable writes, directory syncs, manifest appends and rollovers, moves
// and WAL retirement — and verifies recovery at each point.
func TestCrashPointSweep(t *testing.T) {
	for _, s := range crashScripts {
		t.Run(s.name, func(t *testing.T) {
			total := countCrashWorkloadOps(t, s)
			step := int64(1)
			if max := int64(400); total > max {
				step = total / max
			}
			t.Logf("sweeping %d crash points (every %d of %d FS ops)", total/step, step, total)
			for p := int64(0); p <= total; p += step {
				cfs := vfs.NewCrash(vfs.NewMem())
				cfs.ArmCrash(p)
				model, failedAt, _ := runCrashWorkload(cfs, "crashdb", s)
				if p < total && !cfs.Crashed() {
					t.Fatalf("crash point %d: workload completed without hitting the crash", p)
				}
				recovered := cfs.Crash(vfs.CrashOptions{})
				verifyCrashRecovery(t, recovered, "crashdb", s, model, failedAt)
			}
		})
	}
}

// TestCrashPointSweepTornTail repeats the sweep with torn tails: the crash
// keeps a sector-aligned prefix of each file's unsynced bytes, so recovery
// must also cope with partially persisted records past the durable point.
func TestCrashPointSweepTornTail(t *testing.T) {
	for _, s := range crashScripts {
		t.Run(s.name, func(t *testing.T) {
			total := countCrashWorkloadOps(t, s)
			step := int64(1)
			if max := int64(150); total > max {
				step = total / max
			}
			for p := int64(0); p <= total; p += step {
				cfs := vfs.NewCrash(vfs.NewMem())
				cfs.ArmCrash(p)
				model, failedAt, _ := runCrashWorkload(cfs, "crashdb", s)
				recovered := cfs.Crash(vfs.CrashOptions{
					Seed:         p,
					KeepTornTail: true,
					SectorSize:   512,
				})
				verifyCrashRecovery(t, recovered, "crashdb", s, model, failedAt)
			}
		})
	}
}

// TestWALTornTailRecovery is the targeted regression for the torn-WAL-tail
// window: acked writes followed by a crash that tears the log's unsynced
// tail mid-record. Reopen must replay every acked write and stop cleanly at
// the tear.
func TestWALTornTailRecovery(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		cfs := vfs.NewCrash(vfs.NewMem())
		model, failedAt, _ := runCrashWorkload(cfs, "crashdb", crashScripts[0])
		if failedAt != -1 {
			t.Fatalf("seed %d: unarmed workload crashed at %d", seed, failedAt)
		}
		// Tear at a random sector boundary of whatever was unsynced at the
		// end; with per-group WAL sync the acked model must survive intact.
		recovered := cfs.Crash(vfs.CrashOptions{Seed: seed, KeepTornTail: true, SectorSize: 512})
		verifyCrashRecovery(t, recovered, "crashdb", crashScripts[0], model, -1)
	}
}

// crashStress drives repeated crash/reopen cycles against one evolving file
// system: each cycle opens the survivor of the previous crash, applies a
// random workload until the device dies (or the workload ends), crashes with
// randomized torn/kept tails, then reopens and checks the acked model.
//
// With osDir empty the evolving disk is MemFS-backed. A non-empty osDir runs
// every cycle against the real file system instead: CrashFS wraps OSFS
// root-scoped to osDir, and each post-crash image is materialised back onto
// the directory so the next cycle (and the verification reopen, which then
// exercises OSFS reads and memory maps) starts from exactly what survived.
func crashStress(t *testing.T, inline bool, cycles int, seed int64, osDir string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dir := "crashdb"
	var fs vfs.FS = vfs.NewMem()
	if osDir != "" {
		dir = osDir
		fs = vfs.NewOS()
	}
	model := map[string]string{}
	crashes := 0
	for cycle := 0; cycle < cycles; cycle++ {
		cfs := vfs.NewCrash(fs)
		if osDir != "" {
			cfs.SetRoot(dir)
		}
		// A cycle performs about 50–300 FS operations (a table is one
		// buffered write, a move syncs no directory), so the arm lands
		// inside most cycles.
		cfs.ArmCrash(int64(rng.Intn(300) + 1))
		opts := crashOpts(cfs, dir)
		opts.InlineCompaction = inline
		if !inline {
			// A dead device never heals: escalate to read-only quickly so
			// writers fail fast instead of stalling behind a flush that
			// cannot complete.
			opts.bgMaxRetries = 2
			opts.bgRetryBase = time.Millisecond
			opts.bgRetryMaxDelay = 2 * time.Millisecond
		}
		exemptKey := ""
		exemptDel := false
		exemptVal := ""
		db, err := Open(opts)
		if err == nil {
			nops := rng.Intn(120) + 20
			for j := 0; j < nops; j++ {
				k := key(rng.Intn(crashKeyPool))
				if rng.Intn(8) == 0 {
					if err := db.Delete(k); err != nil {
						exemptKey, exemptDel = string(k), true
						break
					}
					delete(model, string(k))
				} else {
					v := fmt.Sprintf("cyc%04d-op%04d-%s", cycle, j, strings.Repeat("v", 60))
					if err := db.Put(k, []byte(v)); err != nil {
						exemptKey, exemptDel, exemptVal = string(k), false, v
						break
					}
					model[string(k)] = v
				}
			}
			db.Close()
		}
		if cfs.Crashed() {
			crashes++
		}
		img := cfs.Crash(vfs.CrashOptions{
			Seed:         seed ^ int64(cycle),
			KeepTornTail: cycle%2 == 0,
			SectorSize:   512,
			KeepAllProb:  0.3,
		})
		if osDir != "" {
			materializeOS(t, img, dir)
			fs = vfs.NewOS()
		} else {
			fs = img
		}

		// Reopen the survivor and check the acked model; the single
		// in-flight op may have landed either way.
		db2, err := Open(crashOpts(fs, dir))
		if err != nil {
			t.Fatalf("cycle %d: reopen after crash: %v", cycle, err)
		}
		if _, err := db2.VerifyIntegrity(); err != nil {
			db2.Close()
			t.Fatalf("cycle %d: integrity after crash: %v", cycle, err)
		}
		for i := 0; i < crashKeyPool; i++ {
			k := key(i)
			got, ok, err := db2.Get(k)
			if err != nil {
				db2.Close()
				t.Fatalf("cycle %d: Get(%s): %v", cycle, k, err)
			}
			want, inModel := model[string(k)]
			if string(k) == exemptKey {
				oldOK := (inModel && ok && string(got) == want) || (!inModel && !ok)
				newOK := (!exemptDel && ok && string(got) == exemptVal) || (exemptDel && !ok)
				if !oldOK && !newOK {
					db2.Close()
					t.Fatalf("cycle %d: in-flight key %s half-applied: got %q ok=%v", cycle, k, got, ok)
				}
				// The crash resolved the ambiguity; adopt the durable truth.
				if ok {
					model[string(k)] = string(got)
				} else {
					delete(model, string(k))
				}
				continue
			}
			if inModel != ok || (ok && string(got) != want) {
				db2.Close()
				t.Fatalf("cycle %d: key %s: got %q ok=%v, acked %q in=%v", cycle, k, got, ok, want, inModel)
			}
		}
		if err := db2.Close(); err != nil {
			t.Fatalf("cycle %d: close verifier: %v", cycle, err)
		}
	}
	if crashes < cycles/2 {
		t.Fatalf("only %d/%d cycles actually crashed; arm range too large", crashes, cycles)
	}
}

// TestCrashStressRandomizedInline: 200 seeded crash/reopen cycles against
// the deterministic inline engine.
func TestCrashStressRandomizedInline(t *testing.T) {
	crashStress(t, true, 200, 0x5eed, "")
}

// TestCrashStressRandomizedBackground: the same stress against the
// concurrent engine — background flush/compaction, group commit, the error
// handler escalating the dead device to read-only mode.
func TestCrashStressRandomizedBackground(t *testing.T) {
	crashStress(t, false, 50, 0xbeef, "")
}

// materializeOS replays a post-crash disk image onto the real directory:
// everything currently there is removed, then the image's files are written,
// synced and closed, so the directory holds exactly what survived the cut.
func materializeOS(t *testing.T, img *vfs.MemFS, dir string) {
	t.Helper()
	osfs := vfs.NewOS()
	if names, err := osfs.List(dir); err == nil {
		for _, n := range names {
			if err := osfs.Remove(filepath.Join(dir, n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range img.AllFiles() {
		src, err := img.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		size, err := src.Size()
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, size)
		if size > 0 {
			if _, err := src.ReadAt(data, 0); err != nil {
				t.Fatal(err)
			}
		}
		src.Close()
		dst, err := osfs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dst.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := dst.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := dst.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashPointSweepOSFS runs the crash-point sweep of each scripted
// workload on the real file system: CrashFS over OSFS in a fresh temp
// directory per point, with the crash-time enumeration root-scoped to the
// database directory. Short mode sweeps a thinner grid; CI runs the short
// variant.
func TestCrashPointSweepOSFS(t *testing.T) {
	for _, s := range crashScripts {
		t.Run(s.name, func(t *testing.T) {
			probeDir := filepath.Join(t.TempDir(), "crashdb")
			probe := vfs.NewCrash(vfs.NewOS())
			probe.SetRoot(probeDir)
			_, failedAt, moves := runCrashWorkload(probe, probeDir, s)
			if failedAt != -1 {
				t.Fatalf("unarmed workload reported crash at op %d", failedAt)
			}
			if s.moves && moves == 0 {
				t.Fatal("the workload made no move")
			}
			total := probe.OpCount()
			points := int64(60)
			if testing.Short() {
				points = 12
			}
			step := total / points
			if step == 0 {
				step = 1
			}
			t.Logf("sweeping %d OSFS crash points (every %d of %d FS ops)", total/step, step, total)
			for p := int64(0); p <= total; p += step {
				dir := filepath.Join(t.TempDir(), "crashdb")
				cfs := vfs.NewCrash(vfs.NewOS())
				cfs.SetRoot(dir)
				cfs.ArmCrash(p)
				model, failedAt, _ := runCrashWorkload(cfs, dir, s)
				if p < total && !cfs.Crashed() {
					t.Fatalf("crash point %d: workload completed without hitting the crash", p)
				}
				recovered := cfs.Crash(vfs.CrashOptions{Seed: p, KeepTornTail: p%2 == 0, SectorSize: 512})
				verifyCrashRecovery(t, recovered, dir, s, model, failedAt)
			}
		})
	}
}

// TestCrashStressRandomizedOSFS: seeded crash/reopen stress where every
// cycle runs on a real directory through OSFS, including the verification
// reopen (which reads the recovered tables through the memory-map path).
func TestCrashStressRandomizedOSFS(t *testing.T) {
	cycles := 25
	if testing.Short() {
		cycles = 6
	}
	crashStress(t, true, cycles, 0x05f5, filepath.Join(t.TempDir(), "crashdb"))
}

// TestManifestCrashWindowLSM crashes inside every FS operation of a single
// flush — the window that includes the directory sync, the manifest append
// and sync, and WAL retirement — and checks the flush is all-or-nothing
// across reopen.
func TestManifestCrashWindowLSM(t *testing.T) {
	// Count the ops of: open, 60 acked puts, Flush.
	prep := func(fs vfs.FS) (*DB, map[string]string, error) {
		opts := crashOpts(fs, "crashdb")
		opts.MemTableSize = 1 << 20 // no incidental seals: Flush is the window
		db, err := Open(opts)
		if err != nil {
			return nil, nil, err
		}
		model := map[string]string{}
		for j := 0; j < 60; j++ {
			_, k, v := crashOp(j * 2) // even ops only: no deletes
			if err := db.Put(k, v); err != nil {
				db.Close()
				return nil, nil, err
			}
			model[string(k)] = string(v)
		}
		return db, model, nil
	}
	probe := vfs.NewCrash(vfs.NewMem())
	db, _, err := prep(probe)
	if err != nil {
		t.Fatalf("probe prep: %v", err)
	}
	before := probe.OpCount()
	if err := db.Flush(); err != nil {
		t.Fatalf("probe flush: %v", err)
	}
	flushOps := probe.OpCount() - before
	db.Close()
	if flushOps < 3 {
		t.Fatalf("flush performed only %d FS ops", flushOps)
	}

	for p := int64(0); p <= flushOps; p++ {
		cfs := vfs.NewCrash(vfs.NewMem())
		db, model, err := prep(cfs)
		if err != nil {
			t.Fatalf("crash point %d: prep failed before arming: %v", p, err)
		}
		cfs.ArmCrash(p) // relative: p more ops succeed, then the device dies
		db.Flush()      // may fail at any internal op
		db.Close()
		recovered := cfs.Crash(vfs.CrashOptions{Seed: p, KeepTornTail: p%2 == 0, SectorSize: 512})
		verifyCrashRecovery(t, recovered, "crashdb", crashScripts[0], model, -1)
	}
}
