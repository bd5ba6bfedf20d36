package pgm

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/binio"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/indextest"
)

// topArrays are the byte offsets in a payload of the top level's first
// key, slope and position.
type topArrays struct{ keys, slopes, pos int }

// encoded builds osm 20k at eps=4 (levels 1131/65/2) and returns its
// payload and where the top level's arrays start in it.
func encoded(t *testing.T) (payload []byte, top topArrays) {
	t.Helper()
	keys := dataset.MustGenerate(dataset.OSM, 20_000, 1)
	idx, err := New(keys, 4)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for _, l := range idx.levels {
		sizes = append(sizes, len(l.keys))
	}
	if len(sizes) != 3 || sizes[2] != 2 {
		t.Fatalf("osm 20k at eps=4 built levels %v, want three with two segments on top", sizes)
	}
	w := binio.NewWriter(nil)
	if err := idx.Encode(w); err != nil {
		t.Fatal(err)
	}
	at := 4 + 8 + 4 // eps, n, level count
	for _, m := range sizes[:2] {
		at += 4 + m*segmentBytes // the count, then a segment's key, slope and pos
	}
	top = topArrays{keys: at + 4, slopes: at + 4 + 2*8, pos: at + 4 + 2*8 + 2*4}
	p, l := w.Buffered(), idx.levels[2]
	if binary.LittleEndian.Uint64(p[top.keys+8:]) != l.keys[1] || math.Float32frombits(binary.LittleEndian.Uint32(p[top.slopes+4:])) != l.slopes[1] ||
		int32(binary.LittleEndian.Uint32(p[top.pos+4:])) != l.pos[1] || len(p) != top.pos+2*4+2*sizes[0] {
		t.Fatalf("the top level's second segment is not where the offsets say")
	}
	return p, top
}

// TestDecodeRejectsOutOfOrderLevels holds Decode to the invariants the
// descent indexes by. The first case is a payload that decoded cleanly
// and then panicked in Lookup: a top segment whose slope sends every key
// to its neighbour's position, 1<<30, far past the 65 segments below.
func TestDecodeRejectsOutOfOrderLevels(t *testing.T) {
	for _, c := range []struct {
		what  string
		patch func(p []byte, top topArrays)
	}{
		{"position past the level below", func(p []byte, top topArrays) {
			binary.LittleEndian.PutUint32(p[top.slopes:], math.Float32bits(1e30))
			binary.LittleEndian.PutUint32(p[top.pos+4:], 1<<30)
		}},
		{"first position not 0", func(p []byte, top topArrays) {
			binary.LittleEndian.PutUint32(p[top.pos:], 1)
		}},
		{"positions decreasing", func(p []byte, top topArrays) {
			binary.LittleEndian.PutUint32(p[top.pos+4:], 0xffffffff)
		}},
		{"keys decreasing", func(p []byte, top topArrays) {
			binary.LittleEndian.PutUint64(p[top.keys+8:], 0)
			binary.LittleEndian.PutUint64(p[top.keys:], 1)
		}},
		{"infinite slope", func(p []byte, top topArrays) {
			binary.LittleEndian.PutUint32(p[top.slopes:], math.Float32bits(float32(math.Inf(1))))
		}},
		{"NaN slope", func(p []byte, top topArrays) {
			binary.LittleEndian.PutUint32(p[top.slopes:], 0x7fc00000)
		}},
		{"negative slope", func(p []byte, top topArrays) {
			binary.LittleEndian.PutUint32(p[top.slopes:], math.Float32bits(-0.5))
		}},
		{"segment count past the payload", func(p []byte, top topArrays) {
			binary.LittleEndian.PutUint32(p[top.keys-4:], 3)
		}},
		{"margin excess far above n", func(p []byte, _ topArrays) {
			p[len(p)-1] = 0xff // the last segment's upper code
		}},
		{"margin excess just above n + n>>3", func(p []byte, _ topArrays) {
			p[len(p)-2] = byte(core.ToMargin(20_000 + 20_000>>3 + 1))
		}},
	} {
		p, top := encoded(t)
		c.patch(p, top)
		idx, err := Decode(binio.NewReader(p))
		if idx != nil || !errors.Is(err, binio.ErrCorrupt) {
			t.Errorf("%s: decoded to (%v, %v), want a corrupt-data error", c.what, idx, err)
		}
	}
}

// TestDecodeKeepsBounds: an untouched payload decodes to an index that
// bounds every key as the built one does.
func TestDecodeKeepsBounds(t *testing.T) {
	keys := dataset.MustGenerate(dataset.OSM, 20_000, 1)
	built, _ := New(keys, 4)
	p, _ := encoded(t)
	idx, err := Decode(binio.NewReader(p))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range indextest.ProbesFor(keys) {
		if got, want := idx.Lookup(x), built.Lookup(x); got != want {
			t.Fatalf("key %d: decoded bound %v, built %v", x, got, want)
		}
	}
}
