package vfs

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
)

// ErrInjected is returned by FaultFS when a scheduled fault fires.
var ErrInjected = errors.New("vfs: injected fault")

// ErrNoSpace is an injectable out-of-space error; the LSM error handler
// classifies it separately from generic I/O failures.
var ErrNoSpace = errors.New("vfs: no space left on device")

// FaultFS wraps an FS and fails operations according to a programmable
// schedule. It is used by robustness tests (WAL replay after torn writes,
// compaction failure handling, background error recovery, etc.).
//
// Deterministic countdowns (FailAfterWrites, FailCreates, FailSyncs,
// FailRemoves, FailRenames) fire first; independently, FailProbability adds
// a seeded probabilistic failure roll on every interceptable operation so
// stress tests can exercise mixed fault schedules. Target restricts all
// injection to files whose names contain a substring (e.g. ".sst" to fault
// only table I/O while the WAL stays healthy).
type FaultFS struct {
	FS

	mu sync.Mutex
	// failAfterWrites fails every write once the countdown reaches zero.
	// A negative value disables injection.
	failAfterWrites int
	// failCreates fails the next Create calls while positive.
	failCreates int
	// failReads fails every ReadAt while true.
	failReads bool
	// failSyncs / failRemoves / failRenames fail the next n matching calls.
	failSyncs   int
	failRemoves int
	failRenames int
	// corruptWrites silently flips one byte in each of the next n writes:
	// the write "succeeds" but persists damaged bytes, the failure mode
	// ParanoidChecks exists to catch.
	corruptWrites int
	// shortWrites makes each of the next n writes persist the first half of
	// its bytes and then fail: a torn write the caller knows about.
	shortWrites int
	// prob, when positive, fails each operation independently with this
	// probability, drawn from rng.
	prob float64
	rng  *rand.Rand
	// target restricts injection to file names containing this substring;
	// empty matches everything.
	target string
	// err is the error injected faults return.
	err error
}

// NewFault wraps fs with fault injection disabled.
func NewFault(fs FS) *FaultFS {
	return &FaultFS{FS: fs, failAfterWrites: -1, err: ErrInjected}
}

// FailAfterWrites arranges for every write after the next n to fail.
func (f *FaultFS) FailAfterWrites(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAfterWrites = n
}

// FailCreates arranges for the next n Create calls to fail.
func (f *FaultFS) FailCreates(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failCreates = n
}

// FailSyncs arranges for the next n Sync calls to fail.
func (f *FaultFS) FailSyncs(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failSyncs = n
}

// FailRemoves arranges for the next n Remove calls to fail.
func (f *FaultFS) FailRemoves(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failRemoves = n
}

// FailRenames arranges for the next n Rename calls to fail.
func (f *FaultFS) FailRenames(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failRenames = n
}

// CorruptWrites arranges for the next n writes (to targeted files) to
// silently flip one byte: the caller sees success, the medium keeps garbage.
func (f *FaultFS) CorruptWrites(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.corruptWrites = n
}

// ShortWrites arranges for the next n writes (to targeted files) to persist
// only the first half of their bytes and then fail.
func (f *FaultFS) ShortWrites(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shortWrites = n
}

// SetFailReads toggles failing all reads.
func (f *FaultFS) SetFailReads(fail bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failReads = fail
}

// FailProbability makes every interceptable operation fail independently
// with probability p, using a deterministic seeded source. p <= 0 disables
// the probabilistic mode.
func (f *FaultFS) FailProbability(seed int64, p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.prob = p
	f.rng = rand.New(rand.NewSource(seed))
}

// Target restricts fault injection to files whose names contain substr.
// The empty string (the default) targets every file.
func (f *FaultFS) Target(substr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.target = substr
}

// SetInjectedError changes the error injected faults return (e.g. ErrNoSpace
// to simulate a full disk). Nil restores ErrInjected.
func (f *FaultFS) SetInjectedError(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err == nil {
		err = ErrInjected
	}
	f.err = err
}

// Reset disables all fault injection.
func (f *FaultFS) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAfterWrites = -1
	f.failCreates = 0
	f.failReads = false
	f.failSyncs = 0
	f.failRemoves = 0
	f.failRenames = 0
	f.corruptWrites = 0
	f.shortWrites = 0
	f.prob = 0
	f.target = ""
	f.err = ErrInjected
}

// matches reports whether name is subject to injection. Caller holds f.mu.
func (f *FaultFS) matchesLocked(name string) bool {
	return f.target == "" || strings.Contains(name, f.target)
}

// roll applies the probabilistic mode. Caller holds f.mu.
func (f *FaultFS) rollLocked() bool {
	return f.prob > 0 && f.rng.Float64() < f.prob
}

// injectErrLocked returns the configured injection error. Caller holds f.mu.
func (f *FaultFS) injectErrLocked() error { return f.err }

// writeFault decides the fate of one write: pass, fail outright, persist a
// corrupted copy, or persist a prefix and fail.
func (f *FaultFS) writeFault(name string) (corrupt, short bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.matchesLocked(name) {
		return false, false, nil
	}
	if f.failAfterWrites >= 0 {
		if f.failAfterWrites == 0 {
			return false, false, f.injectErrLocked()
		}
		f.failAfterWrites--
	}
	if f.corruptWrites > 0 {
		f.corruptWrites--
		return true, false, nil
	}
	if f.shortWrites > 0 {
		f.shortWrites--
		return false, true, f.injectErrLocked()
	}
	if f.rollLocked() {
		return false, false, f.injectErrLocked()
	}
	return false, false, nil
}

func (f *FaultFS) readFault(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.matchesLocked(name) {
		return nil
	}
	if f.failReads || f.rollLocked() {
		return f.injectErrLocked()
	}
	return nil
}

func (f *FaultFS) syncFault(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.matchesLocked(name) {
		return nil
	}
	if f.failSyncs > 0 {
		f.failSyncs--
		return f.injectErrLocked()
	}
	if f.rollLocked() {
		return f.injectErrLocked()
	}
	return nil
}

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) {
	f.mu.Lock()
	if f.matchesLocked(name) {
		if f.failCreates > 0 {
			f.failCreates--
			err := f.injectErrLocked()
			f.mu.Unlock()
			return nil, err
		}
		if f.rollLocked() {
			err := f.injectErrLocked()
			f.mu.Unlock()
			return nil, err
		}
	}
	f.mu.Unlock()
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f, name: name}, nil
}

// Open implements FS.
func (f *FaultFS) Open(name string) (File, error) {
	file, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f, name: name}, nil
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	if f.matchesLocked(name) {
		if f.failRemoves > 0 {
			f.failRemoves--
			err := f.injectErrLocked()
			f.mu.Unlock()
			return err
		}
		if f.rollLocked() {
			err := f.injectErrLocked()
			f.mu.Unlock()
			return err
		}
	}
	f.mu.Unlock()
	return f.FS.Remove(name)
}

// Rename implements FS.
func (f *FaultFS) Rename(oldname, newname string) error {
	f.mu.Lock()
	if f.matchesLocked(oldname) || f.matchesLocked(newname) {
		if f.failRenames > 0 {
			f.failRenames--
			err := f.injectErrLocked()
			f.mu.Unlock()
			return err
		}
		if f.rollLocked() {
			err := f.injectErrLocked()
			f.mu.Unlock()
			return err
		}
	}
	f.mu.Unlock()
	return f.FS.Rename(oldname, newname)
}

type faultFile struct {
	File
	fs   *FaultFS
	name string
}

// corruptCopy returns p with one byte flipped (empty writes pass through).
func corruptCopy(p []byte) []byte {
	if len(p) == 0 {
		return p
	}
	c := append([]byte(nil), p...)
	c[len(c)/2] ^= 0xFF
	return c
}

func (f *faultFile) Write(p []byte) (int, error) {
	corrupt, short, err := f.fs.writeFault(f.name)
	switch {
	case short:
		n, _ := f.File.Write(p[:len(p)/2])
		return n, err
	case err != nil:
		return 0, err
	case corrupt:
		n, err := f.File.Write(corruptCopy(p))
		return min(n, len(p)), err
	}
	return f.File.Write(p)
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	corrupt, short, err := f.fs.writeFault(f.name)
	switch {
	case short:
		n, _ := f.File.WriteAt(p[:len(p)/2], off)
		return n, err
	case err != nil:
		return 0, err
	case corrupt:
		n, err := f.File.WriteAt(corruptCopy(p), off)
		return min(n, len(p)), err
	}
	return f.File.WriteAt(p, off)
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.fs.readFault(f.name); err != nil {
		return 0, err
	}
	return f.File.ReadAt(p, off)
}

func (f *faultFile) Sync() error {
	if err := f.fs.syncFault(f.name); err != nil {
		return err
	}
	return f.File.Sync()
}
