// Package sstable implements the sorted-string-table file format: sorted
// immutable runs of internal keys organised into prefix-compressed data
// blocks with a Bloom filter and a block index.
//
// Layout:
//
//	[data block 0][type][crc32]
//	[data block 1][type][crc32]
//	...
//	[filter block][type][crc32]   Bloom filter over user keys (never compressed)
//	[index block][type][crc32]    last internal key of each data block → handle
//	[footer]                      fixed 48 bytes: filter handle, index handle,
//	                              entry count, magic
//
// Each block carries a 5-byte trailer: a compression-type byte (none/flate,
// negotiated per block — a block that does not shrink is stored raw) and a
// crc32c over payload+type. Handles address the physical payload, so the
// block cache naturally holds and charges for physical bytes.
//
// Every block read goes through one File.ReadAt call, so the vfs read
// counter equals the paper's "SST reads" metric, and each read consults the
// pluggable BlockCache first — the hook AdCache uses for both caching and
// block-level admission control.
package sstable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"adcache/internal/block"
	"adcache/internal/bloom"
	"adcache/internal/keys"
	"adcache/internal/vfs"
)

const (
	// Magic identifies sstable files.
	Magic = 0xadca0c1e5ab1e000
	// FooterLen is the fixed footer size.
	FooterLen = 48
	// DefaultBlockSize is the target data-block size (the paper's 4 KiB).
	DefaultBlockSize = 4096
	// DefaultBitsPerKey is the paper's Bloom filter budget.
	DefaultBitsPerKey = 10
	// writeBufferSize is the least a table writer hands the file in one
	// Write (only a table's last write is smaller), so a table costs a
	// few system calls, not one or two per block.
	writeBufferSize = 256 << 10
)

// outPool recycles the writers' output buffers.
var outPool = sync.Pool{New: func() any { return make([]byte, 0, writeBufferSize+DefaultBlockSize) }}

// ErrCorrupt reports a structurally invalid table.
var ErrCorrupt = errors.New("sstable: corrupt table")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Handle locates a block within the file.
type Handle struct {
	Offset uint64
	Length uint64 // physical payload length, excluding the 5-byte trailer
}

func (h Handle) encode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, h.Offset)
	dst = binary.LittleEndian.AppendUint64(dst, h.Length)
	return dst
}

func decodeHandle(src []byte) Handle {
	return Handle{
		Offset: binary.LittleEndian.Uint64(src),
		Length: binary.LittleEndian.Uint64(src[8:]),
	}
}

// WriterOptions configures table construction.
type WriterOptions struct {
	// BlockSize is the uncompressed target size of data blocks.
	BlockSize int
	// BitsPerKey sizes the Bloom filter; 0 disables the filter.
	BitsPerKey int
	// Compression selects per-block compression for data and index blocks
	// (the filter block is random bits and is always stored raw). The
	// default, CompressionNone, preserves the uncompressed layout.
	Compression Compression

	// restartInterval is the entries per prefix-compression restart point
	// (block.DefaultRestartInterval); this package's tests vary it.
	restartInterval int
}

func (o WriterOptions) withDefaults() WriterOptions {
	if o.BlockSize <= 0 {
		o.BlockSize = DefaultBlockSize
	}
	if o.restartInterval <= 0 {
		o.restartInterval = block.DefaultRestartInterval
	}
	return o
}

// Meta summarises a finished table for the manifest.
type Meta struct {
	Smallest   keys.InternalKey
	Largest    keys.InternalKey
	NumEntries uint64
	// Size is the physical file size: what the bytes-on-disk actually are.
	Size uint64
	// LogicalSize is what Size would have been with compression off; the
	// Size/LogicalSize ratio is the table's on-disk compression factor.
	LogicalSize uint64
}

// Writer builds an sstable. Entries must be added in increasing internal-key
// order. Output collects in a buffer that goes to the file in writes of at
// least writeBufferSize; a failed write surfaces from the next Add or from
// Finish.
type Writer struct {
	f      vfs.File
	opts   WriterOptions
	buf    *block.Builder
	index  *block.Builder
	offset uint64 // the table's length so far, buffered bytes included
	out    []byte // written bytes not yet handed to f

	hashes     []uint64 // bloom.Hash64 of each user key, for the filter
	numEntries uint64
	smallest   keys.InternalKey
	largest    keys.InternalKey
	lastUser   []byte
	err        error

	// logicalBytes counts what offset would be with compression off; the
	// physical/logical gap is the table's on-disk compression saving.
	logicalBytes uint64
}

// NewWriter starts a table in f.
func NewWriter(f vfs.File, opts WriterOptions) *Writer {
	opts = opts.withDefaults()
	return &Writer{
		f:     f,
		opts:  opts,
		buf:   block.NewBuilder(opts.restartInterval),
		index: block.NewBuilder(1),
		out:   outPool.Get().([]byte)[:0],
	}
}

// Add appends an entry. ikey must be strictly greater than the previous one.
func (w *Writer) Add(ikey keys.InternalKey, value []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.smallest == nil {
		w.smallest = append(keys.InternalKey(nil), ikey...)
	}
	w.largest = append(w.largest[:0], ikey...)
	uk := ikey.UserKey()
	if w.opts.BitsPerKey > 0 && string(uk) != string(w.lastUser) {
		w.hashes = append(w.hashes, bloom.Hash64(uk))
	}
	w.lastUser = append(w.lastUser[:0], uk...)
	w.buf.Add(ikey, value)
	w.numEntries++
	if w.buf.EstimatedSize() >= w.opts.BlockSize {
		w.flushBlock()
	}
	return w.err
}

func (w *Writer) flushBlock() {
	if w.buf.Empty() || w.err != nil {
		return
	}
	h, err := w.writeBlock(w.buf.Finish(), true)
	if err != nil {
		w.err = err
		return
	}
	w.index.Add(w.largest, h.encode(nil))
	w.buf.Reset()
}

// writeBlock writes one block — payload, compression-type byte and crc32
// over both — and returns its handle. compressible allows the configured
// compression to apply; the block is stored raw whenever compression is off,
// disallowed, or fails to shrink the payload.
func (w *Writer) writeBlock(data []byte, compressible bool) (Handle, error) {
	payload, typ := data, CompressionNone
	if compressible && w.opts.Compression == CompressionFlate {
		if c, ok := compressFlate(data); ok {
			payload, typ = c, CompressionFlate
		}
	}
	h := Handle{Offset: w.offset, Length: uint64(len(payload))}
	var trailer [TrailerLen]byte
	trailer[0] = byte(typ)
	crc := crc32.Checksum(payload, crcTable)
	crc = crc32.Update(crc, crcTable, trailer[:1])
	binary.LittleEndian.PutUint32(trailer[1:], crc)
	w.out = append(append(w.out, payload...), trailer[:]...)
	w.offset += uint64(len(payload)) + TrailerLen
	w.logicalBytes += uint64(len(data)) + TrailerLen
	if len(w.out) >= writeBufferSize {
		if err := w.flushOut(); err != nil {
			return Handle{}, err
		}
	}
	return h, nil
}

// flushOut hands the buffered output to the file.
func (w *Writer) flushOut() error {
	_, err := w.f.Write(w.out)
	w.out = w.out[:0]
	return err
}

// Finish flushes remaining data, writes filter, index and footer, and
// returns the table metadata. The file is synced but not closed.
func (w *Writer) Finish() (Meta, error) {
	if w.err != nil {
		return Meta{}, w.err
	}
	if w.numEntries == 0 {
		return Meta{}, errors.New("sstable: empty table")
	}
	w.flushBlock()
	if w.err != nil {
		return Meta{}, w.err
	}

	var filterHandle Handle
	if w.opts.BitsPerKey > 0 {
		filter := bloom.Build(w.hashes, w.opts.BitsPerKey)
		h, err := w.writeBlock(filter, false)
		if err != nil {
			return Meta{}, err
		}
		filterHandle = h
	}

	indexHandle, err := w.writeBlock(w.index.Finish(), true)
	if err != nil {
		return Meta{}, err
	}

	var footer [FooterLen]byte
	filterHandle.encode(footer[:0])
	indexHandle.encode(footer[16:16])
	binary.LittleEndian.PutUint64(footer[32:], w.numEntries)
	binary.LittleEndian.PutUint64(footer[40:], Magic)
	w.out = append(w.out, footer[:]...)
	if err := w.flushOut(); err != nil {
		return Meta{}, err
	}
	outPool.Put(w.out)
	w.out = nil
	if err := w.f.Sync(); err != nil {
		return Meta{}, err
	}
	w.offset += FooterLen
	w.logicalBytes += FooterLen
	return Meta{
		Smallest:    w.smallest,
		Largest:     w.largest,
		NumEntries:  w.numEntries,
		Size:        w.offset,
		LogicalSize: w.logicalBytes,
	}, nil
}

// EstimatedSize reports bytes written so far plus the pending block.
func (w *Writer) EstimatedSize() uint64 {
	return w.offset + uint64(w.buf.EstimatedSize())
}

// NumEntries reports entries added so far.
func (w *Writer) NumEntries() uint64 { return w.numEntries }

func errCorruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}
