package binio

import (
	"bytes"
	"errors"
	"hash/crc64"
	"math"
	"testing"
)

func TestRoundTripPrimitives(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U8(0xAB)
	w.U32(0xDEADBEEF)
	w.U64(0x0123456789ABCDEF)
	w.F64(3.14159)
	w.Str("hello")
	w.Bytes([]byte{1, 2, 3})
	if err := w.Flush(); err != nil {
		t.Fatalf("write: %v", err)
	}
	if w.Len() != int64(buf.Len()) {
		t.Fatalf("Len %d != buffer %d", w.Len(), buf.Len())
	}

	r := NewReader(buf.Bytes())
	if v := r.U8(); v != 0xAB {
		t.Errorf("U8 = %x", v)
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %x", v)
	}
	if v := r.U64(); v != 0x0123456789ABCDEF {
		t.Errorf("U64 = %x", v)
	}
	if v := r.f64(); v != 3.14159 {
		t.Errorf("F64 = %v", v)
	}
	if v := r.Str(100); v != "hello" {
		t.Errorf("Str = %q", v)
	}
	if v := r.Bytes(3); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", v)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
	if err := r.Err(); err != nil {
		t.Fatalf("read: %v", err)
	}
}

func TestReaderTruncation(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if v := r.U64(); v != 0 {
		t.Errorf("truncated U64 = %d, want 0", v)
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", r.Err())
	}
	// Sticky: every later read keeps returning zero values.
	if v := r.U8(); v != 0 {
		t.Errorf("post-error U8 = %d", v)
	}
}

func TestCountGuardsAllocation(t *testing.T) {
	// A 4-byte buffer claiming 2^31 elements must error, not allocate.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U32(1 << 31)
	w.Flush()
	r := NewReader(buf.Bytes())
	if n := r.Count(8); n != 0 {
		t.Errorf("Count = %d, want 0", n)
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", r.Err())
	}
}

func TestCountAcceptsExactFit(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U32(3)
	for i := 0; i < 3; i++ {
		w.U64(uint64(i))
	}
	w.Flush()
	r := NewReader(buf.Bytes())
	if n := r.Count(8); n != 3 {
		t.Fatalf("Count = %d, want 3 (err %v)", n, r.Err())
	}
}

func TestStrLimit(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Str("abcdef")
	w.Flush()
	r := NewReader(buf.Bytes())
	if s := r.Str(3); s != "" || !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("Str over limit: %q, err %v", s, r.Err())
	}
}

func TestFiniteF64RejectsNaNInf(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.F64(v)
		w.Flush()
		r := NewReader(buf.Bytes())
		r.FiniteF64()
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("FiniteF64(%v): err = %v, want ErrCorrupt", v, r.Err())
		}
	}
}

func TestWriterReaderCRCAgree(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(12345)
	w.Str("payload")
	want := w.Sum64()
	w.Flush()

	if got := crc64.Checksum(buf.Bytes(), CRCTable); got != want {
		t.Errorf("reader CRC %x != writer CRC %x", got, want)
	}
}

func TestRawBytesStayOutOfCRC(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(12345)
	sum := w.Sum64()
	w.Raw([]byte{1, 2, 3})
	if w.Sum64() != sum {
		t.Errorf("Raw moved the running CRC: %x -> %x", sum, w.Sum64())
	}
	w.Flush()
	if w.Len() != 11 || !bytes.Equal(buf.Bytes()[8:], []byte{1, 2, 3}) {
		t.Errorf("Raw bytes not written or not counted: Len %d, buffer %v", w.Len(), buf.Bytes())
	}
}
