package wormhole

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/indextest"
)

func TestWormholeValidityAllDatasets(t *testing.T) {
	for _, name := range dataset.All() {
		keys := dataset.MustGenerate(name, 5000, 1)
		probes := indextest.ProbesFor(keys)
		for _, stride := range []int{1, 4, 100} {
			idx, err := Builder{Stride: stride}.Build(keys)
			if err != nil {
				t.Fatalf("%s stride=%d: %v", name, stride, err)
			}
			indextest.CheckValidity(t, idx, keys, probes)
		}
	}
}

func TestWormholeSmall(t *testing.T) {
	keys := []core.Key{10, 20, 30}
	idx, err := Builder{Stride: 1}.Build(keys)
	if err != nil {
		t.Fatal(err)
	}
	indextest.CheckValidity(t, idx, keys, indextest.ProbesFor(keys))
	if n := len(idx.(*index).anchors); n != 1 {
		t.Errorf("leaves = %d", n)
	}
}

func TestWormholeManyLeaves(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 50000, 1)
	idx, err := Builder{Stride: 1}.Build(keys)
	if err != nil {
		t.Fatal(err)
	}
	w := idx.(*index)
	wantLeaves := (len(keys) + leafSize - 1) / leafSize
	if n := len(w.anchors); n != wantLeaves {
		t.Errorf("leaves = %d, want %d", n, wantLeaves)
	}
	indextest.CheckValidity(t, idx, keys, keys[:5000])
}

func TestWormholeStride1Exact(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 10000, 1)
	idx, _ := Builder{Stride: 1}.Build(keys)
	for i, k := range keys[:2000] {
		b := idx.Lookup(k)
		if !(b.Lo <= i && i < b.Hi) || b.Width() > 1 {
			t.Fatalf("Lookup(%d) = %v, want tight bound at %d", k, b, i)
		}
	}
}

func TestWormholeEmpty(t *testing.T) {
	if _, err := (Builder{}).Build(nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestWormholeDuplicates(t *testing.T) {
	// Duplicate keys spanning multiple leaves stress the anchor
	// walk-back path.
	keys := make([]core.Key, 3*leafSize)
	for i := range keys {
		if i < 2*leafSize {
			keys[i] = 777
		} else {
			keys[i] = core.Key(1000 + i)
		}
	}
	idx, err := Builder{Stride: 1}.Build(keys)
	if err != nil {
		t.Fatal(err)
	}
	indextest.CheckValidity(t, idx, keys, indextest.ProbesFor(sample16(keys)))
	b := idx.Lookup(777)
	if b.Lo != 0 {
		t.Errorf("duplicate lookup must reach the first occurrence, got %v", b)
	}
}

func TestWormholeBuilderName(t *testing.T) {
	if (Builder{}).Name() != "Wormhole" {
		t.Error("name")
	}
	keys := dataset.MustGenerate(dataset.OSM, 2000, 1)
	idx := indextest.CheckBuilder(t, Builder{Stride: 2}, keys)
	if idx.Name() != "Wormhole" || idx.SizeBytes() <= 0 {
		t.Error("metadata")
	}
}

// Property: wormhole bounds are valid for arbitrary sorted inputs.
func TestWormholeProperty(t *testing.T) {
	f := func(raw []uint64, x uint64) bool {
		if len(raw) == 0 {
			return true
		}
		keys := make([]core.Key, len(raw))
		copy(keys, raw)
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		idx, err := Builder{Stride: 1}.Build(keys)
		if err != nil {
			return false
		}
		return core.ValidBound(keys, x, idx.Lookup(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// sample16 returns every 16th key (Go has no step slicing).
func sample16(keys []core.Key) []core.Key {
	out := make([]core.Key, 0, len(keys)/16+1)
	for i := 0; i < len(keys); i += 16 {
		out = append(out, keys[i])
	}
	return out
}
