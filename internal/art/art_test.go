package art

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/indextest"
)

func TestARTCeilingMatchesReference(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 10000, 1)
	tr := newTree()
	for i, k := range keys {
		tr.put(k, int32(i))
	}
	probes := indextest.ProbesFor(keys[:2000])
	for _, x := range probes {
		want := core.LowerBound(keys, x)
		k, v, found := tr.ceiling(x, nil)
		if want == len(keys) {
			if found {
				t.Fatalf("Ceiling(%d): found %d, want none", x, k)
			}
			continue
		}
		if !found || v != int32(want) || k != keys[want] {
			t.Fatalf("Ceiling(%d) = (%d,%d,%v), want key %d pos %d", x, k, v, found, keys[want], want)
		}
	}
}

func TestARTValidityAllDatasets(t *testing.T) {
	for _, name := range dataset.All() {
		keys := dataset.MustGenerate(name, 5000, 1)
		probes := indextest.ProbesFor(keys)
		for _, stride := range []int{1, 4, 64, 4999} {
			idx, err := Builder{Stride: stride}.Build(keys)
			if err != nil {
				t.Fatalf("%s stride=%d: %v", name, stride, err)
			}
			indextest.CheckValidity(t, idx, keys, probes)
		}
	}
}

func TestARTInsertOverwrite(t *testing.T) {
	tr := newTree()
	tr.put(42, 1)
	tr.put(42, 7)
	if n := tr.counts[kindLeaf]; n != 1 {
		t.Fatalf("leaves = %d, want 1", n)
	}
	_, v, found := tr.ceiling(42, nil)
	if !found || v != 7 {
		t.Fatalf("Ceiling(42) = (%d, %v)", v, found)
	}
}

func TestARTEmptyTree(t *testing.T) {
	tr := newTree()
	if _, _, found := tr.ceiling(5, nil); found {
		t.Error("empty tree should find nothing")
	}
	if _, err := (Builder{}).Build(nil); err == nil {
		t.Error("expected error on empty build")
	}
}

func TestARTNodeGrowth(t *testing.T) {
	// Keys sharing a 7-byte prefix with all 256 final bytes force one
	// node through every size class.
	tr := newTree()
	base := core.Key(0xAABBCCDD11223300)
	for i := 0; i < 256; i++ {
		tr.put(base|core.Key(i), int32(i))
	}
	if tr.counts[kind256] != 1 {
		t.Errorf("expected one Node256, got %d (counts=%v)", tr.counts[kind256], tr.counts)
	}
	for i := 0; i < 256; i++ {
		k, v, found := tr.ceiling(base|core.Key(i), nil)
		if !found || v != int32(i) || k != base|core.Key(i) {
			t.Fatalf("Ceiling(%d) = (%d,%d,%v)", base|core.Key(i), k, v, found)
		}
	}
}

func TestARTPathCompression(t *testing.T) {
	// Two keys differing only in the last byte share a 7-byte
	// compressed path: exactly one inner node.
	tr := newTree()
	tr.put(0x1122334455667701, 1)
	tr.put(0x1122334455667702, 2)
	if tr.counts[kind4] != 1 {
		t.Errorf("expected 1 Node4, got %d", tr.counts[kind4])
	}
	// A key diverging at byte 3 splits the path.
	tr.put(0x11223399AA000000, 3)
	if tr.counts[kind4] != 2 {
		t.Errorf("expected 2 Node4 after split, got %d", tr.counts[kind4])
	}
	for _, k := range []core.Key{0x1122334455667701, 0x1122334455667702, 0x11223399AA000000} {
		got, _, found := tr.ceiling(k, nil)
		if !found || got != k {
			t.Fatalf("Ceiling(%x) = (%x, %v)", k, got, found)
		}
	}
}

func TestARTCeilingAcrossSplitPaths(t *testing.T) {
	tr := newTree()
	keys := []core.Key{0x1000000000000000, 0x1000000000000005, 0x2000000000000000, 0xFF00000000000000}
	for i, k := range keys {
		tr.put(k, int32(i))
	}
	cases := []struct {
		x    core.Key
		want core.Key
		ok   bool
	}{
		{0, 0x1000000000000000, true},
		{0x1000000000000001, 0x1000000000000005, true},
		{0x1000000000000006, 0x2000000000000000, true},
		{0x3000000000000000, 0xFF00000000000000, true},
		{0xFF00000000000001, 0, false},
	}
	for _, tc := range cases {
		k, _, found := tr.ceiling(tc.x, nil)
		if found != tc.ok || (found && k != tc.want) {
			t.Errorf("Ceiling(%x) = (%x, %v), want (%x, %v)", tc.x, k, found, tc.want, tc.ok)
		}
	}
}

func TestARTRandomInsertCeiling(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := newTree()
	seen := map[core.Key]int32{}
	var sorted []core.Key
	for i := 0; i < 5000; i++ {
		k := core.Key(rng.Uint64())
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = int32(i)
		tr.put(k, int32(i))
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for q := 0; q < 3000; q++ {
		x := core.Key(rng.Uint64())
		i := core.LowerBound(sorted, x)
		k, v, found := tr.ceiling(x, nil)
		if i == len(sorted) {
			if found {
				t.Fatalf("Ceiling(%d) found %d, want none", x, k)
			}
			continue
		}
		if !found || k != sorted[i] || v != seen[sorted[i]] {
			t.Fatalf("Ceiling(%d) = (%d,%d,%v), want %d", x, k, v, found, sorted[i])
		}
	}
}

func TestARTDuplicateData(t *testing.T) {
	keys := []core.Key{7, 7, 7, 7, 7, 9, 9, 15, 15, 15, 15, 22}
	for _, stride := range []int{1, 2, 5} {
		idx, err := Builder{Stride: stride}.Build(keys)
		if err != nil {
			t.Fatal(err)
		}
		indextest.CheckValidity(t, idx, keys, indextest.ProbesFor(keys))
	}
}

func TestARTSizeAccounting(t *testing.T) {
	keys := dataset.MustGenerate(dataset.OSM, 10000, 1)
	full, _ := Builder{Stride: 1}.Build(keys)
	sub, _ := Builder{Stride: 16}.Build(keys)
	if sub.SizeBytes() >= full.SizeBytes() {
		t.Errorf("stride 16 (%d) not smaller than stride 1 (%d)", sub.SizeBytes(), full.SizeBytes())
	}
	if full.SizeBytes() <= 0 {
		t.Error("size must be positive")
	}
}

func TestARTBuilderName(t *testing.T) {
	if (Builder{}).Name() != "ART" {
		t.Error("builder name")
	}
	keys := dataset.MustGenerate(dataset.Face, 2000, 1)
	idx := indextest.CheckBuilder(t, Builder{Stride: 2}, keys)
	if idx.Name() != "ART" {
		t.Error("index name")
	}
}

// Property: ART ceiling agrees with the sorted-array reference under
// random keys.
func TestARTProperty(t *testing.T) {
	f := func(raw []uint64, x uint64) bool {
		uniq := map[uint64]bool{}
		tr := newTree()
		var sorted []core.Key
		for _, k := range raw {
			if uniq[k] {
				continue
			}
			uniq[k] = true
			tr.put(k, 0)
			sorted = append(sorted, k)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		i := core.LowerBound(sorted, x)
		k, _, found := tr.ceiling(x, nil)
		if i == len(sorted) {
			return !found
		}
		return found && k == sorted[i]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
