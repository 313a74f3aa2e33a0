package manifest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"

	"adcache/internal/keys"
)

// EditKind names the job that made an edit.
type EditKind uint8

const (
	// EditSnapshot is the whole state, the first record of every log.
	EditSnapshot EditKind = iota + 1
	// EditFlush adds a memtable's L0 table and retires its log.
	EditFlush
	// EditCompaction replaces a compaction's inputs with its outputs.
	EditCompaction
	// EditSeal adds the log a fresh memtable writes to.
	EditSeal
	// EditClose records the counters at a clean close.
	EditClose
)

func (k EditKind) String() string {
	switch k {
	case EditSnapshot:
		return "snapshot"
	case EditFlush:
		return "flush"
	case EditCompaction:
		return "compaction"
	case EditSeal:
		return "seal"
	case EditClose:
		return "close"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// LevelFile is a table added at a level.
type LevelFile struct {
	Level int
	Meta  *FileMeta
}

// DeletedFile is a table removed from a level.
type DeletedFile struct {
	Level   int
	FileNum uint64
}

// Edit is one version change. Folding applies deletions, then additions:
// an added L0 table goes in front of L0 (newest first), a table added below
// L0 goes into its level's key order. Logs are retired, then added at the
// end of the live list. The counters only grow: an edit carrying a lower
// value leaves them as they were.
type Edit struct {
	Kind EditKind
	// NumLevels is the tree depth, set on snapshots only.
	NumLevels   int
	Deleted     []DeletedFile
	Added       []LevelFile
	AddedWALs   []uint64
	RetiredWALs []uint64
	NextFileNum uint64
	LastSeq     uint64
}

// apply returns the state after e. It shares st's unchanged parts and fails,
// leaving st as it was, if the edit does not fit st or breaks a level
// invariant. A snapshot edit ignores st.
func (st State) apply(e *Edit) (State, error) {
	next := st
	if e.Kind == EditSnapshot {
		next = State{Version: NewVersion(e.NumLevels)}
	} else if st.Version == nil {
		return st, errors.New("manifest: edit before the first snapshot")
	}
	if len(e.Deleted) > 0 || len(e.Added) > 0 {
		v := next.Version.Clone()
		levelOK := func(level int) bool { return level >= 0 && level < len(v.Levels) }
		for _, d := range e.Deleted {
			if !levelOK(d.Level) {
				return st, fmt.Errorf("manifest: delete at level %d of %d", d.Level, len(v.Levels))
			}
			i := slices.IndexFunc(v.Levels[d.Level], func(f *FileMeta) bool { return f.FileNum == d.FileNum })
			if i < 0 {
				return st, fmt.Errorf("manifest: delete of file %06d not at level %d", d.FileNum, d.Level)
			}
			v.Levels[d.Level] = slices.Delete(v.Levels[d.Level], i, i+1)
		}
		var sorted []int
		for _, a := range e.Added {
			if !levelOK(a.Level) {
				return st, fmt.Errorf("manifest: add at level %d of %d", a.Level, len(v.Levels))
			}
			if a.Level == 0 {
				v.Levels[0] = append([]*FileMeta{a.Meta}, v.Levels[0]...)
				continue
			}
			v.Levels[a.Level] = append(v.Levels[a.Level], a.Meta)
			if !slices.Contains(sorted, a.Level) {
				sorted = append(sorted, a.Level)
			}
		}
		for _, level := range sorted {
			files := v.Levels[level]
			sort.SliceStable(files, func(i, j int) bool { return keys.Compare(files[i].Smallest, files[j].Smallest) < 0 })
		}
		if err := v.check(); err != nil {
			return st, err
		}
		next.Version = v
	}
	if len(e.RetiredWALs) > 0 || len(e.AddedWALs) > 0 {
		wals := slices.Clone(next.WALNums)
		for _, num := range e.RetiredWALs {
			i := slices.Index(wals, num)
			if i < 0 {
				return st, fmt.Errorf("manifest: retiring log %06d that is not live", num)
			}
			wals = slices.Delete(wals, i, i+1)
		}
		for _, num := range e.AddedWALs {
			if slices.Contains(wals, num) {
				return st, fmt.Errorf("manifest: log %06d added twice", num)
			}
			wals = append(wals, num)
		}
		next.WALNums = wals
	}
	next.NextFileNum = max(next.NextFileNum, e.NextFileNum)
	next.LastSeq = max(next.LastSeq, e.LastSeq)
	return next, nil
}

// snapshot returns the edit that rebuilds st from nothing. L0 is listed
// oldest first, so folding it puts the newest table in front again.
func (st State) snapshot() *Edit {
	e := &Edit{
		Kind:        EditSnapshot,
		NumLevels:   len(st.Version.Levels),
		AddedWALs:   st.WALNums,
		NextFileNum: st.NextFileNum,
		LastSeq:     st.LastSeq,
	}
	for level, files := range st.Version.Levels {
		for i := range files {
			f := files[i]
			if level == 0 {
				f = files[len(files)-1-i]
			}
			e.Added = append(e.Added, LevelFile{Level: level, Meta: f})
		}
	}
	return e
}

// Fold rebuilds the state from a log's edits. The first must be a
// snapshot, and no other may be.
func Fold(edits []Edit) (State, error) {
	if len(edits) == 0 || edits[0].Kind != EditSnapshot {
		return State{}, errors.New("manifest: log does not start with a snapshot")
	}
	var st State
	for i := range edits {
		if i > 0 && edits[i].Kind == EditSnapshot {
			return State{}, errors.New("manifest: snapshot inside the log")
		}
		var err error
		if st, err = st.apply(&edits[i]); err != nil {
			return State{}, err
		}
	}
	return st, nil
}

// The log format. A log starts with logMagic; each edit follows as a frame
//
//	crc32c(payload) uint32 | len(payload) uint32 | payload
//
// with integers little-endian. The payload is the kind byte, the level
// count (snapshots only), then uvarints: next file number, last sequence,
// the deleted files (count, then level and number each), the added files
// (count, then level, number, size, entries, and the two bounds as
// length-prefixed bytes each), the added logs and the retired logs (count,
// then numbers).
const logMagic = "ADCMLOG1"

const frameHeader = 8

// maxLevels bounds a decoded snapshot's level count.
const maxLevels = 64

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends e's frame to dst.
func appendFrame(dst []byte, e *Edit) []byte {
	hdr := len(dst)
	dst = append(dst, make([]byte, frameHeader)...)
	dst = append(dst, byte(e.Kind))
	if e.Kind == EditSnapshot {
		dst = binary.AppendUvarint(dst, uint64(e.NumLevels))
	}
	dst = binary.AppendUvarint(dst, e.NextFileNum)
	dst = binary.AppendUvarint(dst, e.LastSeq)
	dst = binary.AppendUvarint(dst, uint64(len(e.Deleted)))
	for _, d := range e.Deleted {
		dst = binary.AppendUvarint(dst, uint64(d.Level))
		dst = binary.AppendUvarint(dst, d.FileNum)
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.Added)))
	for _, a := range e.Added {
		f := a.Meta
		dst = binary.AppendUvarint(dst, uint64(a.Level))
		dst = binary.AppendUvarint(dst, f.FileNum)
		dst = binary.AppendUvarint(dst, f.Size)
		dst = binary.AppendUvarint(dst, f.NumEntries)
		dst = binary.AppendUvarint(dst, uint64(len(f.Smallest)))
		dst = append(dst, f.Smallest...)
		dst = binary.AppendUvarint(dst, uint64(len(f.Largest)))
		dst = append(dst, f.Largest...)
	}
	for _, nums := range [][]uint64{e.AddedWALs, e.RetiredWALs} {
		dst = binary.AppendUvarint(dst, uint64(len(nums)))
		for _, n := range nums {
			dst = binary.AppendUvarint(dst, n)
		}
	}
	payload := dst[hdr+frameHeader:]
	binary.LittleEndian.PutUint32(dst[hdr:], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint32(dst[hdr+4:], uint32(len(payload)))
	return dst
}

// errCorrupt marks a frame whose checksum holds but whose payload does not
// decode: not a torn write, but damage.
var errCorrupt = errors.New("manifest: corrupt edit")

// decode reads a log image. It returns the edits of every intact frame in
// order and the length of data they span, the magic included. A torn or
// checksum-failing frame ends the log; a frame whose checksum holds but
// whose payload does not decode is an error, returned with the edits
// before it.
func decode(data []byte) (edits []Edit, n int, err error) {
	if len(data) < len(logMagic) || string(data[:len(logMagic)]) != logMagic {
		return nil, 0, errors.New("manifest: not an edit log")
	}
	n = len(logMagic)
	for len(data)-n >= frameHeader {
		crc := binary.LittleEndian.Uint32(data[n:])
		size := int(binary.LittleEndian.Uint32(data[n+4:]))
		if size > len(data)-n-frameHeader {
			break // torn tail
		}
		payload := data[n+frameHeader : n+frameHeader+size]
		if crc32.Checksum(payload, crcTable) != crc {
			break // torn or damaged tail
		}
		e, ok := decodeEdit(payload)
		if !ok {
			return edits, n, fmt.Errorf("%w at offset %d", errCorrupt, n)
		}
		edits = append(edits, e)
		n += frameHeader + size
	}
	return edits, n, nil
}

// decoder reads a payload's fields; any read past the end or out of range
// clears ok.
type decoder struct {
	p   []byte
	ok  bool
	buf [binary.MaxVarintLen64]byte
}

// uvarint reads one integer in its shortest encoding, the only one the
// encoder writes.
func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.p)
	if n <= 0 || n != len(binary.AppendUvarint(d.buf[:0], v)) {
		d.ok = false
		return 0
	}
	d.p = d.p[n:]
	return v
}

// count reads a list length, bounded by the bytes left (every item takes at
// least one byte) so hostile lengths cannot force large allocations.
func (d *decoder) count() int {
	c := d.uvarint()
	if c > uint64(len(d.p)) {
		d.ok = false
		return 0
	}
	return int(c)
}

func (d *decoder) level() int {
	l := d.uvarint()
	if l >= maxLevels {
		d.ok = false
		return 0
	}
	return int(l)
}

func (d *decoder) key() keys.InternalKey {
	n := d.count()
	if !d.ok || n < keys.TrailerLen {
		d.ok = false
		return nil
	}
	k := append(keys.InternalKey(nil), d.p[:n]...)
	d.p = d.p[n:]
	return k
}

func (d *decoder) nums() []uint64 {
	c := d.count()
	var out []uint64
	for i := 0; i < c && d.ok; i++ {
		out = append(out, d.uvarint())
	}
	return out
}

func decodeEdit(p []byte) (Edit, bool) {
	var e Edit
	if len(p) == 0 {
		return e, false
	}
	e.Kind = EditKind(p[0])
	if e.Kind < EditSnapshot || e.Kind > EditClose {
		return e, false
	}
	d := decoder{p: p[1:], ok: true}
	if e.Kind == EditSnapshot {
		e.NumLevels = d.level()
		if e.NumLevels == 0 {
			d.ok = false
		}
	}
	e.NextFileNum = d.uvarint()
	e.LastSeq = d.uvarint()
	for i, c := 0, d.count(); i < c && d.ok; i++ {
		e.Deleted = append(e.Deleted, DeletedFile{Level: d.level(), FileNum: d.uvarint()})
	}
	for i, c := 0, d.count(); i < c && d.ok; i++ {
		level := d.level()
		f := &FileMeta{FileNum: d.uvarint(), Size: d.uvarint(), NumEntries: d.uvarint()}
		f.Smallest = d.key()
		f.Largest = d.key()
		e.Added = append(e.Added, LevelFile{Level: level, Meta: f})
	}
	e.AddedWALs = d.nums()
	e.RetiredWALs = d.nums()
	return e, d.ok && len(d.p) == 0
}
