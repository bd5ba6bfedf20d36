package btree

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/indextest"
)

func TestBTreeValidityAllDatasets(t *testing.T) {
	for _, name := range dataset.All() {
		keys := dataset.MustGenerate(name, 5000, 1)
		probes := indextest.ProbesFor(keys)
		for _, stride := range []int{1, 2, 16, 100, 5000, 9999} {
			for _, interp := range []bool{false, true} {
				idx, err := Builder{Stride: stride, Interpolate: interp}.Build(keys)
				if err != nil {
					t.Fatalf("%s stride=%d: %v", name, stride, err)
				}
				indextest.CheckValidity(t, idx, keys, probes)
			}
		}
	}
}

func TestBTreeStride1Exact(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 3000, 1)
	idx, _ := Builder{Stride: 1}.Build(keys)
	for i, k := range keys {
		b := idx.Lookup(k)
		if b.Width() != 1 || b.Lo != i {
			t.Fatalf("stride 1 must be exact: key %d got %v want [%d,%d)", k, b, i, i+1)
		}
	}
}

func TestBTreeStrideBoundsWidth(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Wiki, 10000, 1)
	for _, stride := range []int{4, 64} {
		idx, _ := Builder{Stride: stride}.Build(keys)
		for _, k := range keys[:1000] {
			if w := idx.Lookup(k).Width(); w > stride {
				t.Fatalf("stride %d: bound width %d", stride, w)
			}
		}
	}
}

func TestBTreeSizeShrinksWithStride(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 20000, 1)
	full, _ := Builder{Stride: 1}.Build(keys)
	half, _ := Builder{Stride: 2}.Build(keys)
	if half.SizeBytes() >= full.SizeBytes() {
		t.Errorf("stride 2 (%d B) should be smaller than stride 1 (%d B)", half.SizeBytes(), full.SizeBytes())
	}
}

func TestBTreeEmpty(t *testing.T) {
	if _, err := (Builder{Stride: 1}).Build(nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestBTreeSingleKey(t *testing.T) {
	keys := []core.Key{42}
	idx, err := Builder{Stride: 1}.Build(keys)
	if err != nil {
		t.Fatal(err)
	}
	indextest.CheckValidity(t, idx, keys, []core.Key{0, 41, 42, 43, ^core.Key(0)})
}

func TestBTreeDuplicates(t *testing.T) {
	keys := []core.Key{5, 5, 5, 9, 9, 9, 9, 9, 14, 20, 20, 31}
	for _, stride := range []int{1, 3} {
		idx, err := Builder{Stride: stride}.Build(keys)
		if err != nil {
			t.Fatal(err)
		}
		indextest.CheckValidity(t, idx, keys, indextest.ProbesFor(keys))
	}
}

func TestBulkLoadStructure(t *testing.T) {
	for _, n := range []int{0, 1, fanout, fanout + 1, fanout * fanout, 12345} {
		keys := make([]uint64, n)
		vals := make([]int32, n)
		for i := range keys {
			keys[i] = uint64(i * 3)
			vals[i] = int32(i)
		}
		tr, err := NewTree(keys, vals, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.count != n {
			t.Fatalf("count = %d, want %d", tr.count, n)
		}
	}
}

func TestCeilingSemantics(t *testing.T) {
	keys := []uint64{10, 20, 30, 40, 50}
	vals := []int32{0, 1, 2, 3, 4}
	tr, _ := NewTree(keys, vals, false)
	cases := []struct {
		x      uint64
		val    int32
		found  bool
		pred   int32
		predOK bool
	}{
		{5, 0, true, 0, false},
		{10, 0, true, 0, false},
		{11, 1, true, 0, true},
		{30, 2, true, 1, true},
		{45, 4, true, 3, true},
		{50, 4, true, 3, true},
		{51, 0, false, 4, true},
	}
	for _, tc := range cases {
		val, found, pred, predOK := tr.Ceiling(tc.x, nil)
		if found != tc.found || predOK != tc.predOK ||
			(found && val != tc.val) || (predOK && pred != tc.pred) {
			t.Errorf("Ceiling(%d) = (%d,%v,%d,%v), want (%d,%v,%d,%v)",
				tc.x, val, found, pred, predOK, tc.val, tc.found, tc.pred, tc.predOK)
		}
	}
}

func TestBTree32(t *testing.T) {
	// Generic instantiation at uint32 for the key-size experiment.
	keys := make([]uint32, 5000)
	for i := range keys {
		keys[i] = uint32(i * 7)
	}
	vals := make([]int32, len(keys))
	for i := range vals {
		vals[i] = int32(i)
	}
	tr, err := NewTree(keys, vals, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		val, found, _, _ := tr.Ceiling(k, nil)
		if !found || val != int32(i) {
			t.Fatalf("Ceiling(%d) = (%d, %v)", k, val, found)
		}
	}
}

func TestIBTreeName(t *testing.T) {
	if (Builder{Interpolate: true}).Name() != "IBTree" {
		t.Error("interpolating builder should be IBTree")
	}
	if (Builder{}).Name() != "BTree" {
		t.Error("plain builder should be BTree")
	}
}

func TestHeightGrows(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 100000, 1)
	big, _ := Builder{Stride: 1}.Build(keys)
	small, _ := Builder{Stride: 1000}.Build(keys)
	if hb, hs := big.(*Index).tree.height, small.(*Index).tree.height; hb <= hs {
		t.Errorf("height: %d vs %d", hb, hs)
	}
}

// Property test: tree lookups agree with sort-based reference on
// random data, random strides.
func TestBTreeProperty(t *testing.T) {
	f := func(raw []uint64, strideRaw uint8, x uint64) bool {
		if len(raw) == 0 {
			return true
		}
		keys := make([]core.Key, len(raw))
		copy(keys, raw)
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		stride := int(strideRaw)%8 + 1
		idx, err := Builder{Stride: stride}.Build(keys)
		if err != nil {
			return false
		}
		return core.ValidBound(keys, x, idx.Lookup(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Validate checks B+tree structural invariants; used by tests.
func (t *Tree[K]) Validate() error {
	if t.root == nil {
		return errors.New("btree: nil root")
	}
	_, _, err := validate(t.root, t.height)
	return err
}

func validate[K KeyT](nd *node[K], levels int) (minK, maxK K, err error) {
	if nd.isLeaf() {
		if levels != 1 {
			return minK, maxK, errors.New("btree: leaves at different depths")
		}
		for i := 1; i < len(nd.keys); i++ {
			if nd.keys[i] < nd.keys[i-1] {
				return minK, maxK, errors.New("btree: leaf keys out of order")
			}
		}
		if len(nd.keys) == 0 {
			return minK, maxK, nil
		}
		return nd.keys[0], nd.keys[len(nd.keys)-1], nil
	}
	if len(nd.children) != len(nd.keys)+1 {
		return minK, maxK, fmt.Errorf("btree: inner node has %d keys, %d children", len(nd.keys), len(nd.children))
	}
	for ci, ch := range nd.children {
		cmin, cmax, err := validate(ch, levels-1)
		if err != nil {
			return minK, maxK, err
		}
		if ci == 0 {
			minK = cmin
		}
		if ci > 0 && cmin < nd.keys[ci-1] {
			return minK, maxK, errors.New("btree: child violates separator")
		}
		if ci < len(nd.keys) && cmax > nd.keys[ci] {
			return minK, maxK, errors.New("btree: child exceeds separator")
		}
		maxK = cmax
	}
	return minK, maxK, nil
}
