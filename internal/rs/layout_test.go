package rs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
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

// TestDecodeDerivesRadixTable: Decode rebuilds the radix table from the
// spline points as New does, to the same two levels, and the decoded
// index re-encodes to the bytes it was read from.
func TestDecodeDerivesRadixTable(t *testing.T) {
	for _, ds := range dataset.All() {
		keys := dataset.MustGenerate(ds, 20_000, 1)
		idx, err := New(keys, Config{SplineErr: 16, RadixBits: 18})
		if err != nil {
			t.Fatal(err)
		}
		w := binio.NewWriter(nil)
		if err := idx.Encode(w); err != nil {
			t.Fatal(err)
		}
		wire := bytes.Clone(w.Buffered())
		got, err := Decode(binio.NewReader(wire))
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		if !reflect.DeepEqual(got, idx) {
			t.Fatalf("%s: decoded index differs from the built one: base %d, fine %d, k %d vs base %d, fine %d, k %d",
				ds, len(got.base), len(got.fine), got.blockBits, len(idx.base), len(idx.fine), idx.blockBits)
		}
		w.Reset()
		if err := got.Encode(w); err != nil || !bytes.Equal(w.Buffered(), wire) {
			t.Fatalf("%s: re-encoded to other bytes (%v)", ds, err)
		}
	}
}

// TestDecodeRejectsLaunderedRadix: Encode writes the radix table the
// spline points give, so Decode must refuse any other, even one whose
// entries stay monotone and in bounds; accepting it would make
// Encode(Decode(b)) differ from b.
func TestDecodeRejectsLaunderedRadix(t *testing.T) {
	keys := dataset.MustGenerate(dataset.OSM, 20_000, 1)
	idx, err := New(keys, Config{SplineErr: 16, RadixBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	if idx.blockBits < 1 {
		t.Fatalf("osm 20k at %v keeps one level; the fine array is vacuous", idx.cfg)
	}
	w := binio.NewWriter(nil)
	if err := idx.Encode(w); err != nil {
		t.Fatal(err)
	}
	wire := w.Buffered()
	if _, err := Decode(binio.NewReader(wire)); err != nil {
		t.Fatalf("clean payload: %v", err)
	}
	// Lower by one the first fine byte above its predecessor in its
	// block: still monotone and in bounds, but not the table the points
	// give. The fine array ends the payload.
	fine := len(wire) - len(idx.fine)
	p := 1
	for idx.fine[p] == idx.fine[p-1] || p&(1<<idx.blockBits-1) == 0 {
		p++
	}
	bad := bytes.Clone(wire)
	bad[fine+p]--
	if _, err := Decode(binio.NewReader(bad)); !errors.Is(err, binio.ErrCorrupt) {
		t.Fatalf("fine entry %d lowered %d -> %d: Decode error %v, want ErrCorrupt", p, idx.fine[p], idx.fine[p]-1, err)
	}
}

// TestDecodeRadixAllocationIsBounded: Decode builds the radix table the
// spline points give only once the wire has carried as many entries, so
// a one-point payload that claims r=28, whose table would be 2^28
// entries, fails with no more allocated than its error.
func TestDecodeRadixAllocationIsBounded(t *testing.T) {
	idx, err := New([]core.Key{5}, Config{SplineErr: 1, RadixBits: 28})
	if err != nil {
		t.Fatal(err)
	}
	w := binio.NewWriter(nil)
	if err := idx.Encode(w); err != nil {
		t.Fatal(err)
	}
	wire := bytes.Clone(w.Buffered())
	binary.LittleEndian.PutUint32(wire[4:], 28) // RadixBits, after SplineErr
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := Decode(binio.NewReader(wire))
	runtime.ReadMemStats(&after)
	if got != nil || !errors.Is(err, binio.ErrCorrupt) {
		t.Fatalf("a %d-byte payload at r=28 decoded to (%v, %v), want a corrupt-data error", len(wire), got, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
		t.Errorf("a %d-byte payload at r=28: %d bytes allocated", len(wire), alloc)
	}
}
