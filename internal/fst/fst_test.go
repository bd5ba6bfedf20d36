package fst

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/indextest"
)

func TestBitvectorRankSelect(t *testing.T) {
	var bv bitvector
	pattern := make([]bool, 1000)
	rng := rand.New(rand.NewSource(1))
	for i := range pattern {
		pattern[i] = rng.Intn(3) == 0
		bv.append(pattern[i])
	}
	bv.finish()
	ones := 0
	for i, bit := range pattern {
		if bv.get(i) != bit {
			t.Fatalf("get(%d) = %v", i, bv.get(i))
		}
		if bit {
			ones++
			if got := bv.select1(ones); got != i {
				t.Fatalf("select1(%d) = %d, want %d", ones, got, i)
			}
		}
		if got := bv.rank1(i); got != ones {
			t.Fatalf("rank1(%d) = %d, want %d", i, got, ones)
		}
	}
	if bv.ones != ones {
		t.Fatalf("ones = %d, want %d", bv.ones, ones)
	}
}

func TestBitvectorDense(t *testing.T) {
	var bv bitvector
	for i := 0; i < 500; i++ {
		bv.append(true)
	}
	bv.finish()
	for k := 1; k <= 500; k++ {
		if got := bv.select1(k); got != k-1 {
			t.Fatalf("select1(%d) = %d", k, got)
		}
	}
}

func TestBitvectorSparse(t *testing.T) {
	var bv bitvector
	positions := []int{0, 63, 64, 127, 500, 900}
	cur := 0
	for _, p := range positions {
		for cur < p {
			bv.append(false)
			cur++
		}
		bv.append(true)
		cur++
	}
	bv.finish()
	for k, p := range positions {
		if got := bv.select1(k + 1); got != p {
			t.Fatalf("select1(%d) = %d, want %d", k+1, got, p)
		}
	}
}

func TestTrieCeilingMatchesReference(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 5000, 1)
	vals := make([]int32, len(keys))
	for i := range vals {
		vals[i] = int32(i)
	}
	tr, err := newTrie(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.values) != len(keys) {
		t.Fatalf("count = %d", len(tr.values))
	}
	for _, x := range indextest.ProbesFor(keys[:1000]) {
		want := core.LowerBound(keys, x)
		v, found := tr.ceilingValue(x)
		if want == len(keys) {
			if found {
				t.Fatalf("Ceiling(%d): found %d, want none", x, v)
			}
			continue
		}
		if !found || v != int32(want) {
			t.Fatalf("Ceiling(%d) = (%d,%v), want %d", x, v, found, want)
		}
	}
}

func TestTrieRejectsBadInput(t *testing.T) {
	if _, err := newTrie(nil, nil); err == nil {
		t.Error("empty should error")
	}
	if _, err := newTrie([]core.Key{1, 2}, []int32{0}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := newTrie([]core.Key{2, 1}, []int32{0, 1}); err == nil {
		t.Error("unsorted should error")
	}
	if _, err := newTrie([]core.Key{2, 2}, []int32{0, 1}); err == nil {
		t.Error("duplicates should error")
	}
}

func TestTrieSingleKey(t *testing.T) {
	tr, err := newTrie([]core.Key{0xDEADBEEF}, []int32{7})
	if err != nil {
		t.Fatal(err)
	}
	if v, found := tr.ceilingValue(0xDEADBEEF); !found || v != 7 {
		t.Fatalf("exact: (%d,%v)", v, found)
	}
	if v, found := tr.ceilingValue(0); !found || v != 7 {
		t.Fatalf("below: (%d,%v)", v, found)
	}
	if _, found := tr.ceilingValue(0xDEADBEF0); found {
		t.Fatal("above should not find")
	}
}

func TestTrieAdjacentKeys(t *testing.T) {
	// Keys differing in one bit exercise deep shared paths.
	keys := []core.Key{
		0x1000000000000000, 0x1000000000000001, 0x1000000000000002,
		0x10000000000000FF, 0x1000000000000100,
	}
	vals := []int32{0, 1, 2, 3, 4}
	tr, err := newTrie(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if v, found := tr.ceilingValue(k); !found || v != int32(i) {
			t.Fatalf("Ceiling(%x) = (%d,%v)", k, v, found)
		}
	}
	if v, found := tr.ceilingValue(0x1000000000000003); !found || v != 3 {
		t.Fatalf("gap: (%d,%v)", v, found)
	}
}

func TestFSTIndexValidity(t *testing.T) {
	for _, name := range dataset.All() {
		keys := dataset.MustGenerate(name, 3000, 1)
		probes := indextest.ProbesFor(keys)
		for _, stride := range []int{1, 7, 100} {
			idx, err := Builder{Stride: stride}.Build(keys)
			if err != nil {
				t.Fatalf("%s stride=%d: %v", name, stride, err)
			}
			indextest.CheckValidity(t, idx, keys, probes)
		}
	}
}

func TestFSTDuplicateData(t *testing.T) {
	keys := []core.Key{3, 3, 3, 8, 8, 10, 11, 11, 50}
	for _, stride := range []int{1, 2} {
		idx, err := Builder{Stride: stride}.Build(keys)
		if err != nil {
			t.Fatal(err)
		}
		indextest.CheckValidity(t, idx, keys, indextest.ProbesFor(keys))
	}
}

func TestFSTBuilderName(t *testing.T) {
	if (Builder{}).Name() != "FST" {
		t.Error("name")
	}
	keys := dataset.MustGenerate(dataset.Wiki, 1000, 1)
	idx := indextest.CheckBuilder(t, Builder{Stride: 2}, keys)
	if idx.Name() != "FST" || idx.SizeBytes() <= 0 {
		t.Error("metadata")
	}
}

// Property: trie ceiling agrees with the sorted-array reference.
func TestTrieProperty(t *testing.T) {
	f := func(raw []uint64, x uint64) bool {
		uniq := map[uint64]bool{}
		var keys []core.Key
		for _, k := range raw {
			if !uniq[k] {
				uniq[k] = true
				keys = append(keys, k)
			}
		}
		if len(keys) == 0 {
			return true
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		vals := make([]int32, len(keys))
		for i := range vals {
			vals[i] = int32(i)
		}
		tr, err := newTrie(keys, vals)
		if err != nil {
			return false
		}
		want := core.LowerBound(keys, x)
		v, found := tr.ceilingValue(x)
		if want == len(keys) {
			return !found
		}
		return found && v == int32(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
