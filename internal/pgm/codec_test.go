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

// encoded builds osm 20k at eps=4 (levels 1131/65/2) and returns its
// payload and the byte offset of the top level's first segment.
func encoded(t *testing.T) (payload []byte, top int) {
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
	top = 4 + 8 + 4 // eps, n, level count
	for _, m := range sizes[:2] {
		top += 4 + m*segmentBytes
	}
	return w.Buffered(), top + 4
}

// TestDecodeRejectsOutOfOrderLevels holds Decode to the invariants the
// descent indexes by. The first case is a payload that decoded cleanly
// and then panicked in Lookup: a top segment whose slope sends every key
// to its neighbour's position, 1<<30, far past the 65 segments below.
func TestDecodeRejectsOutOfOrderLevels(t *testing.T) {
	const slope, pos, next = 8, 12, segmentBytes // offsets within the top level
	for _, c := range []struct {
		what  string
		patch func(p []byte, top int)
	}{
		{"position past the level below", func(p []byte, top int) {
			binary.LittleEndian.PutUint32(p[top+slope:], math.Float32bits(1e30))
			binary.LittleEndian.PutUint32(p[top+next+pos:], 1<<30)
		}},
		{"first position not 0", func(p []byte, top int) {
			binary.LittleEndian.PutUint32(p[top+pos:], 1)
		}},
		{"positions decreasing", func(p []byte, top int) {
			binary.LittleEndian.PutUint32(p[top+next+pos:], 0xffffffff)
		}},
		{"keys decreasing", func(p []byte, top int) {
			binary.LittleEndian.PutUint64(p[top+next:], 0)
			binary.LittleEndian.PutUint64(p[top:], 1)
		}},
		{"infinite slope", func(p []byte, top int) {
			binary.LittleEndian.PutUint32(p[top+slope:], math.Float32bits(float32(math.Inf(1))))
		}},
		{"NaN slope", func(p []byte, top int) {
			binary.LittleEndian.PutUint32(p[top+slope:], 0x7fc00000)
		}},
		{"negative slope", func(p []byte, top int) {
			binary.LittleEndian.PutUint32(p[top+slope:], math.Float32bits(-0.5))
		}},
		{"margin excess far above n", func(p []byte, _ int) {
			binary.LittleEndian.PutUint16(p[len(p)-2:], 0xffff) // the last segment's upper code
		}},
		{"margin excess just above n + n>>10", func(p []byte, _ int) {
			binary.LittleEndian.PutUint16(p[len(p)-4:], uint16(core.ToMargin(20_000+20_000>>10+1)))
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
