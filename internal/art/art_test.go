package art

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/indextest"
)

// build builds a stride-1 index over keys, which must be sorted.
func build(t *testing.T, keys []core.Key) *Index {
	t.Helper()
	idx, err := Builder{Stride: 1}.Build(keys)
	if err != nil {
		t.Fatal(err)
	}
	return idx.(*Index)
}

// exact reports whether a stride-1 index's bound for x is exactly the
// lower bound's one position or, past the last key, what follows the
// last key's first position.
func exact(idx *Index, keys []core.Key, x core.Key) bool {
	lb, n := core.LowerBound(keys, x), len(keys)
	want := core.Bound{Lo: lb, Hi: lb + 1}
	if lb == n {
		want = core.Bound{Lo: core.LowerBound(keys, keys[n-1]) + 1, Hi: n}
	}
	return idx.Lookup(x) == want
}

// checkExact holds a stride-1 index to exact at every probe.
func checkExact(t *testing.T, idx *Index, keys, probes []core.Key) {
	t.Helper()
	for _, x := range probes {
		if !exact(idx, keys, x) {
			t.Fatalf("Lookup(%#x) = %v, lower bound %d", x, idx.Lookup(x), core.LowerBound(keys, x))
		}
	}
}

func TestARTCeilingMatchesReference(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 10000, 1)
	checkExact(t, build(t, keys), keys, indextest.ProbesFor(keys[:2000]))
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

func TestARTEmptyTree(t *testing.T) {
	if _, err := (Builder{}).Build(nil); err == nil {
		t.Error("expected error on empty build")
	}
	// One key: the root is a leaf.
	keys := []core.Key{5}
	idx := build(t, keys)
	if idx.root >= 0 || idx.SizeBytes() != 0 {
		t.Errorf("one key: root %d, %d bytes; want a leaf and no nodes", idx.root, idx.SizeBytes())
	}
	checkExact(t, idx, keys, []core.Key{0, 4, 5, 6, ^core.Key(0)})
}

// TestARTNodeKinds builds a root with three children, one with 10, one
// with 40 and one with 256: one node of every kind.
func TestARTNodeKinds(t *testing.T) {
	var keys []core.Key
	for top, n := range map[core.Key]int{0x10: 10, 0x20: 40, 0x30: 256} {
		for b := range n {
			keys = append(keys, top<<56|core.Key(b)<<48|0x1234)
		}
	}
	slices.Sort(keys)
	idx := build(t, keys)
	tr := idx
	if got := [4]int{len(tr.n4), len(tr.n16), len(tr.n48), len(tr.n256)}; got != [4]int{1, 1, 1, 1} {
		t.Fatalf("Node4/16/48/256 counts %v, want one of each", got)
	}
	probes := indextest.ProbesFor(keys)
	for _, top := range []core.Key{0x0F, 0x10, 0x20, 0x30} {
		for b := range core.Key(256) {
			probes = append(probes, top<<56|b<<48, top<<56|b<<48|0x1235)
		}
	}
	checkExact(t, idx, keys, probes)
}

func TestARTPathCompression(t *testing.T) {
	// Two keys differing only in the last byte share a 7-byte
	// compressed path: one inner node, branching on byte 7.
	two := []core.Key{0x1122334455667701, 0x1122334455667702}
	if idx := build(t, two); len(idx.n4) != 1 || idx.n4[0].depth != 7 || idx.n4[0].prefix != 0x1122334455667700 {
		t.Fatalf("two keys: nodes %+v, want one Node4 at depth 7", idx.n4)
	}
	// A key diverging at byte 3 puts a Node4 at depth 3 above it.
	keys := append(two, 0x11223399AA000000)
	idx := build(t, keys)
	if len(idx.n4) != 2 || idx.n4[1].depth != 3 {
		t.Fatalf("three keys: nodes %+v, want a Node4 at depth 3 over the one at 7", idx.n4)
	}
	checkExact(t, idx, keys, []core.Key{
		0, 0x1122330000000000, // the root's prefix is greater: its least key
		0x2000000000000000, // the root's prefix is smaller: none
		0x1122334400000000, // the depth-7 node's prefix is greater: its least key
		0x11223344FF000000, // its prefix is smaller: back up to the root's next byte
		0x1122334455667701, 0x1122334455667702, 0x1122334455667703, 0x11223399AA000000,
	})
}

func TestARTCeilingAcrossSplitPaths(t *testing.T) {
	keys := []core.Key{0x1000000000000000, 0x1000000000000005, 0x10FF000000000001, 0x10FF000000000002, 0x2000000000000000, 0xFF00000000000000}
	checkExact(t, build(t, keys), keys, []core.Key{
		0, 0x1000000000000001, 0x1000000000000006, 0x3000000000000000, 0xFF00000000000001,
		// Nothing under 0x10FF...02's node at byte 7 is >= 03, and byte
		// 1's node has no byte past 0xFF: the ceiling is two levels up.
		0x10FF000000000003, 0x10FFFFFFFFFFFFFF,
	})
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

// TestARTSizeAccounting: SizeBytes is the four node arrays, each its
// length times its node's size, and a sparser subset is smaller.
func TestARTSizeAccounting(t *testing.T) {
	keys := dataset.MustGenerate(dataset.OSM, 10000, 1)
	full := build(t, keys)
	tr := full
	want := len(tr.n4)*int(unsafe.Sizeof(node4{})) + len(tr.n16)*int(unsafe.Sizeof(node16{})) +
		len(tr.n48)*int(unsafe.Sizeof(node48{})) + len(tr.n256)*int(unsafe.Sizeof(node256{}))
	if got := full.SizeBytes(); got != want || got <= 0 {
		t.Errorf("SizeBytes %d, want the arrays' %d bytes", got, want)
	}
	sub, _ := Builder{Stride: 16}.Build(keys)
	if sub.SizeBytes() >= full.SizeBytes() {
		t.Errorf("stride 16 (%d) not smaller than stride 1 (%d)", sub.SizeBytes(), full.SizeBytes())
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

// Property: a stride-1 index's bound is LowerBound's position, over
// keys shifted right by a random count so that they share leading
// bytes, with duplicates.
func TestARTProperty(t *testing.T) {
	f := func(raw []uint64, shift uint8, x uint64) bool {
		if len(raw) == 0 {
			return true
		}
		s := shift % 64
		keys := make([]core.Key, len(raw))
		for i, k := range raw {
			keys[i] = k >> s
		}
		keys = append(keys, keys[0]) // one duplicate at least
		slices.Sort(keys)
		idx, err := Builder{Stride: 1}.Build(keys)
		if err != nil {
			return false
		}
		mid := keys[len(keys)/2]
		return exact(idx.(*Index), keys, x>>s) && exact(idx.(*Index), keys, mid) && exact(idx.(*Index), keys, mid+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
