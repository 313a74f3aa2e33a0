package manifest

import (
	"encoding/json"
	"fmt"
	"sync"

	"adcache/internal/vfs"
)

// Store persists version edits to the MANIFEST log of a directory. It keeps
// the folded state, so each Commit costs one appended frame and one sync;
// only a rollover rewrites the whole state.
//
// The directory holds the tables and logs the edits name. The store syncs
// it before an edit that names a new file becomes durable: on the append
// path before writing the frame, on the rollover path after the rename. A
// file created before a Commit is therefore on disk whenever an edit
// naming it is. An appended edit that names no new file — a move, whose
// tables an earlier edit named, or a close — syncs no directory. A file
// removed after the Commit that retires it needs no sync of its own — a
// crash that undoes the removal leaves an orphan, which recovery deletes.
type Store struct {
	fs  vfs.FS
	dir string

	mu    sync.Mutex
	state State
	// log is the open MANIFEST, positioned at its end. Nil until the first
	// Commit after Open, and after a failed append: the next Commit then
	// rolls over, so no edit is ever written behind a torn frame.
	log vfs.File
	// size is the log's length; limit the length that triggers a rollover.
	size, limit int64
	buf         []byte
}

// rolloverFactor and minRolloverBytes set the rollover point: the log is
// rewritten once it is rolloverFactor times the size of its snapshot, and
// never below minRolloverBytes, so a small tree does not roll over on
// nearly every edit.
const (
	rolloverFactor   = 4
	minRolloverBytes = 64 << 10
)

// Open loads the state persisted in dir. With no MANIFEST the state is an
// empty tree of numLevels levels. A MANIFEST in the JSON format that came
// before the log is read once and replaced by a log at the first Commit.
func Open(fs vfs.FS, dir string, numLevels int) (*Store, State, error) {
	s := &Store{fs: fs, dir: dir}
	if !fs.Exists(path(dir)) {
		s.state = State{NextFileNum: 1, Version: NewVersion(numLevels)}
		return s, s.state, nil
	}
	edits, err := ReadFile(fs, dir)
	if err != nil {
		return nil, State{}, err
	}
	if s.state, err = Fold(edits); err != nil {
		return nil, State{}, err
	}
	return s, s.state, nil
}

// path returns the manifest file path of dir.
func path(dir string) string { return dir + "/MANIFEST" }

// Commit makes e durable and returns the version it leads to. A failed
// Commit leaves the store's state as it was; the edit may or may not be on
// disk, so the caller must keep every file the edit names.
func (s *Store) Commit(e *Edit) (*Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next, err := s.state.apply(e)
	if err != nil {
		return nil, err
	}
	if s.log != nil && s.size < s.limit {
		err = s.append(e, s.state.namesNewFile(e))
	} else {
		err = s.rollover(next)
	}
	if err != nil {
		return nil, err
	}
	s.state = next
	return next.Version, nil
}

// namesNewFile reports whether e names a file st does not list: a log, or
// a table that is not already live at some level.
func (st State) namesNewFile(e *Edit) bool {
	if len(e.AddedWALs) > 0 {
		return true
	}
	for _, lf := range e.Added {
		if !st.Version.lists(lf.Meta.FileNum) {
			return true
		}
	}
	return false
}

// append writes e's frame to the open log and syncs it, syncing the
// directory first when e names a new file. Caller holds s.mu.
func (s *Store) append(e *Edit, syncDir bool) error {
	if syncDir {
		if err := s.fs.SyncDir(s.dir); err != nil {
			return err
		}
	}
	s.buf = appendFrame(s.buf[:0], e)
	_, err := s.log.Write(s.buf)
	if err == nil {
		err = s.log.Sync()
	}
	if err != nil {
		s.log.Close()
		s.log = nil
		return err
	}
	s.size += int64(len(s.buf))
	return nil
}

// rollover writes st as the snapshot of a fresh log, syncs it, renames it
// over MANIFEST and syncs the directory; later edits append to it. Caller
// holds s.mu.
func (s *Store) rollover(st State) error {
	if s.log != nil {
		s.log.Close()
		s.log = nil
	}
	s.buf = appendFrame(append(s.buf[:0], logMagic...), st.snapshot())
	tmp := path(s.dir) + ".tmp"
	f, err := s.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(s.buf); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = s.fs.Rename(tmp, path(s.dir))
	}
	if err == nil {
		err = s.fs.SyncDir(s.dir)
	}
	if err != nil {
		f.Close()
		return err
	}
	s.log = f
	s.size = int64(len(s.buf))
	s.limit = max(rolloverFactor*s.size, minRolloverBytes)
	return nil
}

// Close releases the log file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}

// ReadFile returns the edits of dir's MANIFEST, oldest first. A JSON
// MANIFEST reads as one snapshot edit.
func ReadFile(fs vfs.FS, dir string) ([]Edit, error) {
	f, err := fs.Open(path(dir))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil && size > 0 {
		return nil, err
	}
	if len(data) > 0 && data[0] == '{' {
		st, err := decodeJSON(data)
		if err != nil {
			return nil, err
		}
		return []Edit{*st.snapshot()}, nil
	}
	edits, _, err := decode(data)
	return edits, err
}

// The JSON format that came before the log: the whole state, rewritten at
// every change. It is only read now.
type fileMetaJSON struct {
	FileNum    uint64 `json:"file_num"`
	Size       uint64 `json:"size"`
	NumEntries uint64 `json:"num_entries"`
	Smallest   []byte `json:"smallest"`
	Largest    []byte `json:"largest"`
}

type stateJSON struct {
	NextFileNum uint64           `json:"next_file_num"`
	LastSeq     uint64           `json:"last_seq"`
	WALNum      uint64           `json:"wal_num"`
	WALNums     []uint64         `json:"wal_nums,omitempty"`
	Levels      [][]fileMetaJSON `json:"levels"`
}

func decodeJSON(data []byte) (State, error) {
	var js stateJSON
	if err := json.Unmarshal(data, &js); err != nil {
		return State{}, fmt.Errorf("manifest: corrupt: %w", err)
	}
	if len(js.Levels) == 0 || len(js.Levels) > maxLevels {
		return State{}, fmt.Errorf("manifest: corrupt: %d levels", len(js.Levels))
	}
	st := State{
		NextFileNum: js.NextFileNum,
		LastSeq:     js.LastSeq,
		WALNums:     js.WALNums,
		Version:     NewVersion(len(js.Levels)),
	}
	if len(st.WALNums) == 0 && js.WALNum != 0 {
		st.WALNums = []uint64{js.WALNum}
	}
	for i, level := range js.Levels {
		for _, fm := range level {
			st.Version.Levels[i] = append(st.Version.Levels[i], &FileMeta{
				FileNum: fm.FileNum, Size: fm.Size, NumEntries: fm.NumEntries,
				Smallest: fm.Smallest, Largest: fm.Largest,
			})
		}
	}
	return st, st.Version.check()
}
