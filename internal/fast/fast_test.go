package fast

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/indextest"
)

func TestFASTValidityAllDatasets(t *testing.T) {
	for _, name := range dataset.All() {
		keys := dataset.MustGenerate(name, 5000, 1)
		probes := indextest.ProbesFor(keys)
		for _, stride := range []int{1, 3, 16, 100, 4999} {
			idx, err := Builder{Stride: stride}.Build(keys)
			if err != nil {
				t.Fatalf("%s stride=%d: %v", name, stride, err)
			}
			indextest.CheckValidity(t, idx, keys, probes)
		}
	}
}

func TestFASTCeilingMatchesReference(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 20000, 1)
	tr, err := NewTree(keys)
	if err != nil {
		t.Fatal(err)
	}
	probes := indextest.ProbesFor(keys[:2000])
	for _, x := range probes {
		want := core.LowerBound(keys, x)
		if got := tr.Ceiling(x, nil); got != want {
			t.Fatalf("Ceiling(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestFASTSmallTrees(t *testing.T) {
	for _, n := range []int{1, 2, blockKeys - 1, blockKeys, blockKeys + 1, blockKeys * blockKeys, 1000} {
		keys := make([]core.Key, n)
		for i := range keys {
			keys[i] = core.Key(i*5 + 3)
		}
		tr, err := NewTree(keys)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			if got := tr.Ceiling(k, nil); got != i {
				t.Fatalf("n=%d: Ceiling(%d) = %d, want %d", n, k, got, i)
			}
			if got := tr.Ceiling(k+1, nil); got != i+1 {
				t.Fatalf("n=%d: Ceiling(%d) = %d, want %d", n, k+1, got, i+1)
			}
		}
		if got := tr.Ceiling(0, nil); got != 0 {
			t.Fatalf("n=%d: Ceiling(0) = %d", n, got)
		}
	}
}

func TestFASTEmpty(t *testing.T) {
	if _, err := NewTree[core.Key](nil); err == nil {
		t.Fatal("expected error")
	}
	if _, err := (Builder{}).Build(nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestFASTDuplicates(t *testing.T) {
	keys := []core.Key{3, 3, 3, 3, 9, 9, 12, 12, 12, 40}
	idx, err := Builder{Stride: 1}.Build(keys)
	if err != nil {
		t.Fatal(err)
	}
	indextest.CheckValidity(t, idx, keys, indextest.ProbesFor(keys))
	idx2, err := Builder{Stride: 3}.Build(keys)
	if err != nil {
		t.Fatal(err)
	}
	indextest.CheckValidity(t, idx2, keys, indextest.ProbesFor(keys))
}

func TestFAST32(t *testing.T) {
	keys := make([]uint32, 3000)
	for i := range keys {
		keys[i] = uint32(i * 11)
	}
	tr, err := NewTree(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if got := tr.Ceiling(k, nil); got != i {
			t.Fatalf("Ceiling(%d) = %d, want %d", k, got, i)
		}
	}
	// 32-bit tree must be about half the size of the 64-bit one.
	keys64 := make([]core.Key, len(keys))
	for i, k := range keys {
		keys64[i] = core.Key(k)
	}
	tr64, _ := NewTree(keys64)
	if tr.SizeBytes()*2 != tr64.SizeBytes() {
		t.Errorf("32-bit size %d, 64-bit size %d", tr.SizeBytes(), tr64.SizeBytes())
	}
}

func TestFASTHeight(t *testing.T) {
	keys := make([]core.Key, blockKeys*blockKeys*blockKeys)
	for i := range keys {
		keys[i] = core.Key(i)
	}
	tr, _ := NewTree(keys)
	if h := len(tr.levels); h != 3 {
		t.Errorf("height = %d, want 3", h)
	}
}

func TestFASTSizeShrinksWithStride(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Wiki, 20000, 1)
	full, _ := Builder{Stride: 1}.Build(keys)
	sub, _ := Builder{Stride: 8}.Build(keys)
	if sub.SizeBytes() >= full.SizeBytes() {
		t.Errorf("stride 8 (%d) not smaller than stride 1 (%d)", sub.SizeBytes(), full.SizeBytes())
	}
}

func TestFASTBuilderName(t *testing.T) {
	if (Builder{}).Name() != "FAST" {
		t.Error("name")
	}
	keys := dataset.MustGenerate(dataset.Face, 2000, 1)
	idx := indextest.CheckBuilder(t, Builder{Stride: 2}, keys)
	if idx.Name() != "FAST" {
		t.Error("index name")
	}
}

// Property: Ceiling agrees with the reference lower bound for random
// sorted arrays.
func TestFASTProperty(t *testing.T) {
	f := func(raw []uint64, x uint64) bool {
		if len(raw) == 0 {
			return true
		}
		keys := make([]core.Key, len(raw))
		copy(keys, raw)
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		tr, err := NewTree(keys)
		if err != nil {
			return false
		}
		return tr.Ceiling(x, nil) == core.LowerBound(keys, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
