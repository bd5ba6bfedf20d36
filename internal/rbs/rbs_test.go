package rbs

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/indextest"
)

func TestRBSValidityAllDatasets(t *testing.T) {
	for _, name := range dataset.All() {
		keys := dataset.MustGenerate(name, 5000, 1)
		probes := indextest.ProbesFor(keys)
		for _, r := range []int{1, 4, 10, 18} {
			idx, err := newIndex(keys, r)
			if err != nil {
				t.Fatalf("%s r=%d: %v", name, r, err)
			}
			indextest.CheckValidity(t, idx, keys, probes)
		}
	}
}

func TestRBSBoundsShrinkWithBits(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 50000, 1)
	lookups := dataset.Lookups(keys, 1000, 2)
	avgWidth := func(idx core.Index) float64 {
		total := 0
		for _, x := range lookups {
			total += idx.Lookup(x).Width()
		}
		return float64(total) / float64(len(lookups))
	}
	small, _ := newIndex(keys, 6)
	large, _ := newIndex(keys, 16)
	if avgWidth(large) >= avgWidth(small) {
		t.Errorf("more bits should shrink bounds: %f vs %f", avgWidth(large), avgWidth(small))
	}
}

func TestRBSFaceCollapse(t *testing.T) {
	// The paper's key RBS result: face's extreme outliers make the
	// radix table nearly useless — the bulk of keys share one prefix,
	// so bounds stay enormous.
	face := dataset.MustGenerate(dataset.Face, 50000, 1)
	amzn := dataset.MustGenerate(dataset.Amzn, 50000, 1)
	rf, _ := newIndex(face, 16)
	ra, _ := newIndex(amzn, 16)
	width := func(idx core.Index, keys []core.Key) float64 {
		total := 0
		for _, x := range keys[:5000] {
			total += idx.Lookup(x).Width()
		}
		return float64(total) / 5000
	}
	wf, wa := width(rf, face), width(ra, amzn)
	if wf < 100*wa {
		t.Errorf("face bounds (%f) should be far wider than amzn (%f)", wf, wa)
	}
}

func TestRBSSize(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 1000, 1)
	idx, _ := newIndex(keys, 10)
	want := (1<<10 + 1) * 4
	if idx.SizeBytes() != want {
		t.Errorf("size = %d, want %d", idx.SizeBytes(), want)
	}
}

func TestRBSEmpty(t *testing.T) {
	if _, err := newIndex(nil, 8); err == nil {
		t.Fatal("expected error")
	}
}

func TestRBSSingleKey(t *testing.T) {
	keys := []core.Key{42}
	idx, err := newIndex(keys, 8)
	if err != nil {
		t.Fatal(err)
	}
	indextest.CheckValidity(t, idx, keys, []core.Key{0, 41, 42, 43, ^core.Key(0)})
}

func TestRBSDuplicates(t *testing.T) {
	keys := []core.Key{5, 5, 5, 5, 100, 100, 7000, 7000, 7000, 90000}
	idx, err := newIndex(keys, 6)
	if err != nil {
		t.Fatal(err)
	}
	indextest.CheckValidity(t, idx, keys, indextest.ProbesFor(keys))
}

func TestRBSBitsClamp(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Wiki, 1000, 1)
	idx, err := newIndex(keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if idx.radixBits != 1 {
		t.Errorf("bits=0 should clamp to 1, got %d", idx.radixBits)
	}
	idx2, _ := newIndex(keys, 99)
	if idx2.radixBits > 28 {
		t.Error("bits not clamped high")
	}
	indextest.CheckValidity(t, idx2, keys, indextest.ProbesFor(keys))
}

func TestRBSBuilderInterface(t *testing.T) {
	var b core.Builder = Builder{RadixBits: 12}
	if b.Name() != "RBS" {
		t.Errorf("name %q", b.Name())
	}
	keys := dataset.MustGenerate(dataset.OSM, 2000, 1)
	idx := indextest.CheckBuilder(t, b, keys)
	if idx.Name() != "RBS" {
		t.Error("bad name")
	}
}

func TestBinarySearchBaseline(t *testing.T) {
	var b core.Builder = BinarySearchBuilder{}
	if b.Name() != "BS" {
		t.Errorf("name %q", b.Name())
	}
	keys := dataset.MustGenerate(dataset.Amzn, 1000, 1)
	idx := indextest.CheckBuilder(t, b, keys)
	if idx.SizeBytes() != 0 {
		t.Error("BS must have zero size")
	}
	if idx.Lookup(123).Width() != len(keys) {
		t.Error("BS must return the full bound")
	}
	if _, err := b.Build(nil); err == nil {
		t.Error("expected error on empty")
	}
}
