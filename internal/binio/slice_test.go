package binio

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// rec is a leaf-like record: numbers of three widths, nested, unpadded.
type rec struct {
	f    float32
	lo   int32
	a, b uint16
	c    uint32
	in   struct{ x, y uint64 }
}

func recs() []rec {
	return []rec{
		{f: 1.5, lo: -3, a: 0x0102, b: 0xfffe, c: 0xa0b0c0d, in: struct{ x, y uint64 }{0x0102030405060708, 9}},
		{f: float32(math.Inf(1)), lo: 1 << 30, a: 7, b: 8, c: 1, in: struct{ x, y uint64 }{^uint64(0), 0}},
	}
}

// fieldBytes is the count, then what a field-at-a-time encoder writes
// for rs in order.
func fieldBytes(rs []rec, order binary.AppendByteOrder) []byte {
	b := order.AppendUint32(nil, uint32(len(rs)))
	for _, r := range rs {
		b = order.AppendUint32(b, math.Float32bits(r.f))
		b = order.AppendUint32(b, uint32(r.lo))
		b = order.AppendUint16(b, r.a)
		b = order.AppendUint16(b, r.b)
		b = order.AppendUint32(b, r.c)
		b = order.AppendUint64(b, r.in.x)
		b = order.AppendUint64(b, r.in.y)
	}
	return b
}

// TestSliceWireIsLittleEndianFields: PutSlice writes the count, then
// each record as a field-at-a-time little-endian encoder would, and
// GetSlice reads back the records and nothing more.
func TestSliceWireIsLittleEndianFields(t *testing.T) {
	w := NewWriter(nil)
	PutSlice(w, recs())
	PutSlice(w, []int32{-1, 2})
	PutSlice[uint16](w, nil)
	want := append(fieldBytes(recs(), binary.LittleEndian), 2, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 2, 0, 0, 0, 0, 0, 0, 0)
	if got := w.Buffered(); !slices.Equal(got, want) {
		t.Fatalf("wire\n% x\nwant\n% x", got, want)
	}
	r := NewReader(want)
	if got := GetSlice[rec](r); !slices.Equal(got, recs()) {
		t.Errorf("records = %v", got)
	}
	if got := GetSlice[int32](r); !slices.Equal(got, []int32{-1, 2}) {
		t.Errorf("int32s = %v", got)
	}
	if got := GetSlice[uint16](r); len(got) != 0 {
		t.Errorf("empty slice read as %v", got)
	}
	if r.Remaining() != 0 || r.Err() != nil {
		t.Errorf("%d bytes left, err %v", r.Remaining(), r.Err())
	}
}

// TestSliceSwapsEveryNumber runs PutSlice, GetSlice and FromWire as on a
// host whose memory order is the other one: the wire then holds every
// number of every record, nested or not, turned around, and reads back
// whole.
func TestSliceSwapsEveryNumber(t *testing.T) {
	swapped := fieldBytes(recs(), binary.BigEndian)
	if !hostLittleEndian {
		swapped = fieldBytes(recs(), binary.LittleEndian)
	}
	defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
	hostLittleEndian = !hostLittleEndian
	w := NewWriter(nil)
	PutSlice(w, recs())
	got := w.Buffered()
	if !slices.Equal(got[4:], swapped[4:]) {
		t.Fatalf("wire\n% x\nwant\n% x", got, swapped)
	}
	if back := GetSlice[rec](NewReader(got)); !slices.Equal(back, recs()) {
		t.Errorf("read back %v", back)
	}
	if back := FromWire[rec](got[4:]); !slices.Equal(back, recs()) {
		t.Errorf("viewed %v", back)
	}
}

// TestFromWireAliasesOnlyAligned: FromWire views aligned wire bytes in
// place on a little-endian host, and copies misaligned ones; both read
// back the numbers Wire wrote.
func TestFromWireAliasesOnlyAligned(t *testing.T) {
	want := []uint64{1, 1 << 40, ^uint64(0)}
	buf := view(make([]uint64, len(want)+1))
	for _, off := range []int{0, 1, 4} {
		b := buf[off : off+8*len(want)]
		copy(b, Wire(want))
		got := FromWire[uint64](b)
		if !slices.Equal(got, want) {
			t.Fatalf("offset %d: %v", off, got)
		}
		if alias := unsafe.Pointer(&got[0]) == unsafe.Pointer(&b[0]); alias != (off == 0 && hostLittleEndian) {
			t.Errorf("offset %d: aliased %v", off, alias)
		}
	}
}

// TestGetSliceGuardsAllocation: a count the remaining bytes cannot hold
// fails through Count, and allocates no more than its error; GetArray
// refuses a negative count.
func TestGetSliceGuardsAllocation(t *testing.T) {
	buf := binary.LittleEndian.AppendUint32(nil, 3)
	buf = append(buf, make([]byte, 3*8-1)...)
	r := NewReader(buf)
	if got := GetSlice[uint64](r); len(got) != 0 || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("3 words over 23 bytes: %v, err %v", got, r.Err())
	}
	if got := GetSlice[uint8](r); len(got) != 0 {
		t.Fatalf("read %v after a failure", got)
	}
	neg := NewReader(make([]byte, 8))
	if got := GetArray[uint16](neg, -1); len(got) != 0 || !errors.Is(neg.Err(), ErrCorrupt) {
		t.Fatalf("-1 elements: %v, err %v", got, neg.Err())
	}
	huge := NewReader(binary.LittleEndian.AppendUint32(nil, math.MaxUint32))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	GetSlice[rec](huge)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4096 || huge.Err() == nil {
		t.Errorf("a count of 2^32-1 records: %d bytes allocated, err %v", got, huge.Err())
	}
}
