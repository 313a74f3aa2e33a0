// Package wal implements the write-ahead log. Each write is framed as
//
//	crc32(4) length(4) payload
//
// where the payload encodes seq, kind, key and value. Replay stops cleanly
// at the first torn or corrupt frame, so a crash mid-append loses at most
// the unsynced tail — the standard LSM durability contract.
package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"

	"adcache/internal/keys"
	"adcache/internal/vfs"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("wal: closed")

// Record is one logical write.
type Record struct {
	Seq   uint64
	Kind  keys.Kind
	Key   []byte
	Value []byte
}

// Writer appends records to a log file. Records are framed into the
// writer's buffer by Add and reach the file with one Write per Flush, so a
// write group costs one device write however many records it carries.
//
// Add, Flush and Close must not run concurrently with each other; Sync may
// run concurrently with any of them except Close.
type Writer struct {
	f      vfs.File
	buf    []byte // framed records added since the last Flush
	closed bool
}

// NewWriter wraps f, which should be empty or freshly created.
func NewWriter(f vfs.File) *Writer { return &Writer{f: f} }

// Add frames rec onto the writer's buffer. Nothing reaches the file until
// Flush.
func (w *Writer) Add(rec Record) {
	// Grow by doubling from a page-sized start: append's own growth, 1.25×
	// past a few hundred bytes, copies a large group's buffer dozens of
	// times in every fresh log.
	if n := 8 + 3*binary.MaxVarintLen64 + 1 + len(rec.Key) + len(rec.Value); cap(w.buf)-len(w.buf) < n {
		w.buf = append(make([]byte, 0, max(2*cap(w.buf), len(w.buf)+n, 4<<10)), w.buf...)
	}
	hdr := len(w.buf)
	w.buf = append(w.buf, make([]byte, 8)...)
	w.buf = binary.AppendUvarint(w.buf, rec.Seq)
	w.buf = append(w.buf, byte(rec.Kind))
	w.buf = binary.AppendUvarint(w.buf, uint64(len(rec.Key)))
	w.buf = append(w.buf, rec.Key...)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(rec.Value)))
	w.buf = append(w.buf, rec.Value...)
	payload := w.buf[hdr+8:]
	binary.LittleEndian.PutUint32(w.buf[hdr:], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint32(w.buf[hdr+4:], uint32(len(payload)))
}

// Flush writes every record added since the last Flush with one Write call.
// It does not sync; call Sync for durability. The buffer is emptied even on
// failure: the caller fails those records as a unit.
func (w *Writer) Flush() error {
	buf := w.buf
	w.buf = w.buf[:0]
	if w.closed {
		return ErrClosed
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := w.f.Write(buf)
	return err
}

// Sync flushes the log to stable storage.
func (w *Writer) Sync() error { return w.f.Sync() }

// Close syncs and closes the underlying file.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.f.Sync(); err != nil {
		return err
	}
	return w.f.Close()
}

// Replay reads all intact records from f in order, invoking fn for each.
// It returns the highest sequence number seen. Corrupt or truncated tails
// terminate replay without error.
func Replay(f vfs.File, fn func(Record) error) (maxSeq uint64, err error) {
	size, err := f.Size()
	if err != nil {
		return 0, err
	}
	var off int64
	var hdr [8]byte
	for off+8 <= size {
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			if err == io.EOF {
				return maxSeq, nil
			}
			return maxSeq, err
		}
		wantCRC := binary.LittleEndian.Uint32(hdr[:4])
		length := int64(binary.LittleEndian.Uint32(hdr[4:]))
		if off+8+length > size {
			return maxSeq, nil // torn tail
		}
		payload := make([]byte, length)
		if _, err := f.ReadAt(payload, off+8); err != nil {
			return maxSeq, nil
		}
		if crc32.Checksum(payload, crcTable) != wantCRC {
			return maxSeq, nil // corrupt tail
		}
		rec, ok := decode(payload)
		if !ok {
			return maxSeq, nil
		}
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
		if err := fn(rec); err != nil {
			return maxSeq, err
		}
		off += 8 + length
	}
	return maxSeq, nil
}

// decode parses one frame's payload. It accepts exactly what Add writes —
// minimal varints, and nothing after the value — so any other payload, even
// under a valid checksum, reads as corrupt.
func decode(p []byte) (Record, bool) {
	var rec Record
	seq, n := uvarint(p)
	if n <= 0 || n >= len(p) {
		return rec, false
	}
	rec.Seq = seq
	p = p[n:]
	rec.Kind = keys.Kind(p[0])
	p = p[1:]
	klen, n := uvarint(p)
	if n <= 0 || klen > uint64(len(p)-n) {
		return rec, false
	}
	p = p[n:]
	rec.Key = append([]byte(nil), p[:klen]...)
	p = p[klen:]
	vlen, n := uvarint(p)
	if n <= 0 || vlen != uint64(len(p)-n) {
		return rec, false
	}
	rec.Value = append([]byte(nil), p[n:]...)
	return rec, true
}

// uvarint reads a varint in the minimal encoding binary.AppendUvarint
// writes; n <= 0 for anything else.
func uvarint(p []byte) (uint64, int) {
	v, n := binary.Uvarint(p)
	var buf [binary.MaxVarintLen64]byte
	if n > 0 && binary.PutUvarint(buf[:], v) != n {
		return 0, -1
	}
	return v, n
}
