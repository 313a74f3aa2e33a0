// Package trace records and replays workload traces: the paper's
// Background Tuning Module collects workload logs (§3.1), and replaying one
// reproduces a production access pattern offline.
//
// Format: length-framed binary records
//
//	kind(1) scanLen(varint) keyLen(varint) key [endLen(varint) end]
//
// The end-bound suffix is present only for OpScanRange records, so traces
// written before bounded scans were recorded parse unchanged. Values are not
// recorded — admission and partitioning decisions depend on access patterns,
// not payloads — which keeps traces small and free of application data.
package trace

import (
	"encoding/binary"
	"errors"
	"io"

	"adcache/internal/vfs"
	"adcache/internal/workload"
)

// ErrCorrupt reports a malformed trace.
var ErrCorrupt = errors.New("trace: corrupt record")

// Writer appends operations to a trace file.
type Writer struct {
	f   vfs.File
	buf []byte
	n   int64
}

// NewWriter starts a trace in f.
func NewWriter(f vfs.File) *Writer { return &Writer{f: f} }

// Record appends one operation.
func (w *Writer) Record(op workload.Op) error {
	buf := w.buf[:0]
	buf = append(buf, byte(op.Kind))
	buf = binary.AppendUvarint(buf, uint64(op.ScanLen))
	buf = binary.AppendUvarint(buf, uint64(len(op.Key)))
	buf = append(buf, op.Key...)
	if op.Kind == workload.OpScanRange {
		buf = binary.AppendUvarint(buf, uint64(len(op.End)))
		buf = append(buf, op.End...)
	}
	w.buf = buf
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(buf)))
	if _, err := w.f.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.f.Write(buf); err != nil {
		return err
	}
	w.n++
	return nil
}

// Len reports how many operations were recorded.
func (w *Writer) Len() int64 { return w.n }

// Close syncs and closes the trace.
func (w *Writer) Close() error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	return w.f.Close()
}

// Reader iterates a trace file.
type Reader struct {
	f    vfs.File
	off  int64
	size int64
}

// NewReader opens a trace in f.
func NewReader(f vfs.File) (*Reader, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	return &Reader{f: f, size: size}, nil
}

// Next returns the next operation; io.EOF ends the trace.
func (r *Reader) Next() (workload.Op, error) {
	var op workload.Op
	if r.off+4 > r.size {
		return op, io.EOF
	}
	var hdr [4]byte
	if _, err := r.f.ReadAt(hdr[:], r.off); err != nil {
		return op, err
	}
	length := int64(binary.LittleEndian.Uint32(hdr[:]))
	if length == 0 || r.off+4+length > r.size {
		return op, ErrCorrupt
	}
	payload := make([]byte, length)
	if _, err := r.f.ReadAt(payload, r.off+4); err != nil {
		return op, err
	}
	r.off += 4 + length

	op.Kind = workload.OpKind(payload[0])
	rest := payload[1:]
	scanLen, n := binary.Uvarint(rest)
	if n <= 0 {
		return op, ErrCorrupt
	}
	rest = rest[n:]
	keyLen, n := binary.Uvarint(rest)
	if n <= 0 || int(keyLen) > len(rest)-n {
		return op, ErrCorrupt
	}
	op.ScanLen = int(scanLen)
	op.Key = append([]byte(nil), rest[n:n+int(keyLen)]...)
	if op.Kind == workload.OpScanRange {
		rest = rest[n+int(keyLen):]
		endLen, n := binary.Uvarint(rest)
		if n <= 0 || int(endLen) > len(rest)-n {
			return op, ErrCorrupt
		}
		if endLen > 0 {
			op.End = append([]byte(nil), rest[n:n+int(endLen)]...)
		}
	}
	return op, nil
}

// ReadAll collects every operation of a trace.
func ReadAll(f vfs.File) ([]workload.Op, error) {
	r, err := NewReader(f)
	if err != nil {
		return nil, err
	}
	var ops []workload.Op
	for {
		op, err := r.Next()
		if err == io.EOF {
			return ops, nil
		}
		if err != nil {
			return ops, err
		}
		ops = append(ops, op)
	}
}
