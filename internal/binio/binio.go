// Package binio provides the little-endian wire primitives shared by
// every on-disk encoder and decoder of the persistence subsystem: a
// span-buffered Writer that accumulates a running CRC64 alongside the
// bytes it emits, and a bounded Reader over an in-memory buffer whose
// every allocation is guarded by the bytes actually remaining, so a
// decoder fed truncated or bit-flipped input returns an error instead
// of panicking or allocating unbounded memory.
package binio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
)

// CRCTable is the CRC64 polynomial table used by every persisted
// artifact (ECMA, the same polynomial as xz and RocksDB's crc64).
var CRCTable = crc64.MakeTable(crc64.ECMA)

// ErrCorrupt is the sentinel wrapped by every decode failure, so
// callers can distinguish corruption from I/O errors with errors.Is.
var ErrCorrupt = errors.New("corrupt data")

// Corruptf builds an ErrCorrupt-wrapped error.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// BufSize is the span a sink-backed Writer collects before it hands
// bytes on; Raw payloads of at least this size skip the buffer.
const BufSize = 64 << 10

// Writer encodes little-endian primitives into a buffer it owns and
// hands them to its sink in spans of up to BufSize bytes, folding each
// span into a running CRC64 once. Nothing is sure to have reached the
// sink before Flush; the first sink error is sticky, so encode paths
// write unconditionally and check once at the end. With no sink (the
// zero value, NewWriter(nil)) it encodes in memory: see Buffered.
type Writer struct {
	w      io.Writer
	buf    []byte // encoded, not yet handed to w
	hashed int    // buf[:hashed] is in crc already, or is Raw
	crc    uint64
	n      int64 // bytes handed to w
	err    error
}

// NewWriter returns a Writer over w; nil makes an in-memory encoder.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Reset empties the Writer, keeping its sink and its buffer's memory.
func (w *Writer) Reset() {
	w.buf, w.hashed, w.crc, w.n, w.err = w.buf[:0], 0, 0, 0, nil
}

// Buffered returns the encoded bytes not yet handed to the sink — with
// no sink, all of them. The view is valid until the next write.
func (w *Writer) Buffered() []byte { return w.buf }

// fold brings the running CRC up to date with the buffer.
func (w *Writer) fold() {
	if w.hashed < len(w.buf) {
		w.crc = crc64.Update(w.crc, CRCTable, w.buf[w.hashed:])
		w.hashed = len(w.buf)
	}
}

// Flush hands every buffered byte to the sink and returns the sticky
// error. It must precede any fsync of the sink.
func (w *Writer) Flush() error {
	if w.w != nil {
		w.fold()
		w.emit(w.buf)
		w.buf, w.hashed = w.buf[:0], 0
	}
	return w.err
}

func (w *Writer) emit(p []byte) {
	if w.err == nil && len(p) > 0 {
		if _, w.err = w.w.Write(p); w.err == nil {
			w.n += int64(len(p))
		}
	}
}

// reserve flushes first if n more bytes would overfill the span.
func (w *Writer) reserve(n int) {
	if w.w != nil && len(w.buf)+n > BufSize {
		w.Flush()
	}
}

// Raw writes bytes that stay out of the running CRC64: bulk payload
// whose own checksum the caller has already recorded, so hashing it a
// second time on the way out would buy nothing. Len counts them.
func (w *Writer) Raw(p []byte) {
	w.fold()
	if w.w != nil && len(p) >= BufSize { // straight to the sink, uncopied
		w.Flush()
		w.emit(p)
		return
	}
	w.reserve(len(p))
	w.buf = append(w.buf, p...)
	w.hashed = len(w.buf)
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) {
	w.reserve(1)
	w.buf = append(w.buf, v)
}

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.reserve(4)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.reserve(8)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// F64 writes an IEEE-754 float64, little-endian.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes writes raw bytes (no length prefix).
func (w *Writer) Bytes(p []byte) {
	w.reserve(len(p))
	w.buf = append(w.buf, p...)
}

// Str writes a uint32 length prefix followed by the string bytes.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.reserve(len(s))
	w.buf = append(w.buf, s...)
}

// Sum64 returns the CRC64 of everything written so far bar Raw bytes.
func (w *Writer) Sum64() uint64 {
	w.fold()
	return w.crc
}

// Len returns the number of bytes written so far, buffered or not.
func (w *Writer) Len() int64 { return w.n + int64(len(w.buf)) }

// Err returns the first underlying write error, or nil.
func (w *Writer) Err() error { return w.err }

// Reader consumes little-endian primitives from an in-memory buffer.
// Every accessor returns the zero value once the reader has errored
// (truncation or a failed guard), and Err reports the first failure.
// Decoders must size allocations through Count, which refuses any
// element count whose minimum encoding exceeds the remaining bytes —
// the guard that turns a hostile 4-byte "length" into an error instead
// of a multi-gigabyte allocation.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps buf.
func NewReader(buf []byte) *Reader { return &Reader{b: buf} }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.err = Corruptf("truncated: need %d bytes, %d remain", n, len(r.b)-r.off)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// f64 reads an IEEE-754 float64.
func (r *Reader) f64() float64 { return math.Float64frombits(r.U64()) }

// FiniteF64 reads a float64 and errors on NaN or infinity — persisted
// model parameters are always finite, so a non-finite value is
// corruption, and rejecting it here keeps decoded indexes out of
// undefined float-to-int conversions.
func (r *Reader) FiniteF64() float64 {
	v := r.f64()
	if r.err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		r.err = Corruptf("non-finite float")
		return 0
	}
	return v
}

// Bytes reads exactly n raw bytes (a view into the buffer, not a copy).
func (r *Reader) Bytes(n int) []byte { return r.take(n) }

// Str reads a uint32-length-prefixed string, refusing lengths beyond
// the remaining bytes (so a corrupt prefix cannot trigger a huge
// allocation) or beyond maxLen.
func (r *Reader) Str(maxLen int) string {
	n := int(r.U32())
	if r.err != nil {
		return ""
	}
	if n > maxLen {
		r.err = Corruptf("string length %d exceeds limit %d", n, maxLen)
		return ""
	}
	p := r.take(n)
	if p == nil {
		return ""
	}
	return string(p)
}

// Count reads a uint32 element count and validates that count*elemSize
// bytes could still follow in the buffer. It is the mandatory gate in
// front of every count-driven allocation.
func (r *Reader) Count(elemSize int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n < 0 || n > r.Remaining()/elemSize {
		r.err = Corruptf("count %d exceeds %d remaining bytes (elem %dB)", n, r.Remaining(), elemSize)
		return 0
	}
	return n
}

// Remaining reports the unconsumed byte count.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }
