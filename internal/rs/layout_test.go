package rs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/binio"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/indextest"
)

// checkSegments holds segmentFor to a predecessor search over the whole
// point array for every probe: the radix window, widened or not, must
// never cut the containing segment out.
func checkSegments(t *testing.T, what string, idx *Index, probes []core.Key) {
	t.Helper()
	for _, x := range probes {
		want := max(sort.Search(len(idx.keys), func(j int) bool { return idx.keys[j] > x })-1, 0)
		if got := idx.segmentFor(x, nil); got != want {
			t.Fatalf("%s: key %d: segment %d, predecessor search %d", what, x, got, want)
		}
	}
}

// TestRadixWidthKeepsSegments covers both radix widths on every
// dataset: a rung whose spline fits 16-bit entries unshifted, and one
// with more than 65,535 points, whose entries are stored shifted right
// and whose windows widen. The keys grow until the fine rung has that
// many points, so the shifted leg cannot go vacuous.
func TestRadixWidthKeepsSegments(t *testing.T) {
	for _, ds := range dataset.All() {
		n := 250_000
		keys := dataset.MustGenerate(ds, n, 1)
		fine, err := New(keys, Config{SplineErr: 1, RadixBits: 16})
		for err == nil && fine.radixShift == 0 && n < 2_000_000 {
			n *= 2
			keys = dataset.MustGenerate(ds, n, 1)
			fine, err = New(keys, Config{SplineErr: 1, RadixBits: 16})
		}
		if err != nil {
			t.Fatalf("%s n=%d: %v", ds, n, err)
		}
		if fine.radixShift < 1 {
			t.Fatalf("%s n=%d: %d points stored unshifted; the shifted leg is vacuous", ds, n, len(fine.keys))
		}
		coarse, err := New(keys, Config{SplineErr: 64, RadixBits: 14})
		if err != nil {
			t.Fatalf("%s n=%d: %v", ds, n, err)
		}
		if coarse.radixShift != 0 {
			t.Fatalf("%s n=%d: %d points stored at shift %d, want 0", ds, n, len(coarse.keys), coarse.radixShift)
		}
		probes := indextest.ProbesFor(keys)
		for _, idx := range []*Index{coarse, fine} {
			what := fmt.Sprintf("%s n=%d %v (%d points, shift %d)", ds, n, idx.cfg, len(idx.keys), idx.radixShift)
			checkSegments(t, what, idx, probes)
			indextest.CheckValidity(t, idx, keys, probes)
		}
	}
}

// TestDecodeRejectsLaunderedRadix: Encode writes the radix table the
// spline points give, so Decode must refuse any other, even one that is
// monotone and in bounds; accepting it would make Encode(Decode(b))
// differ from b.
func TestDecodeRejectsLaunderedRadix(t *testing.T) {
	keys := dataset.MustGenerate(dataset.OSM, 20_000, 1)
	idx, err := New(keys, Config{SplineErr: 16, RadixBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	w := binio.NewWriter(nil)
	if err := idx.Encode(w); err != nil {
		t.Fatal(err)
	}
	wire := w.Buffered()
	if _, err := Decode(binio.NewReader(wire)); err != nil {
		t.Fatalf("clean payload: %v", err)
	}
	table := len(wire) - 4*(1<<idx.cfg.RadixBits+1)
	entry := func(p int) uint32 { return binary.LittleEndian.Uint32(wire[table+4*p:]) }
	// Lower by one the first entry above its predecessor: still
	// monotone and in bounds, but not the table the points give.
	p := 1
	for entry(p) == entry(p-1) {
		p++
	}
	bad := append([]byte(nil), wire...)
	binary.LittleEndian.PutUint32(bad[table+4*p:], entry(p)-1)
	if _, err := Decode(binio.NewReader(bad)); !errors.Is(err, binio.ErrCorrupt) {
		t.Fatalf("radix entry %d lowered %d -> %d: Decode error %v, want ErrCorrupt", p, entry(p), entry(p)-1, err)
	}
}
