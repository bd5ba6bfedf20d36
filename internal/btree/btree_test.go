package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/binio"
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
	for _, n := range []int{0, 1, fanout, fanout + 1, fanout * fanout, fanout*fanout + 1, 12345} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i * 3)
		}
		tr := NewTree(keys, false)
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(tr.levels[0]) != n {
			t.Fatalf("n=%d: %d leaf keys", n, len(tr.levels[0]))
		}
	}
}

func TestCeilingSemantics(t *testing.T) {
	tr := NewTree([]uint64{10, 20, 30, 40, 50}, false)
	for _, tc := range []struct {
		x    uint64
		rank int
	}{{5, 0}, {10, 0}, {11, 1}, {30, 2}, {45, 4}, {50, 4}, {51, 5}} {
		if r := tr.Ceiling(tc.x, nil); r != tc.rank {
			t.Errorf("Ceiling(%d) = %d, want %d", tc.x, r, tc.rank)
		}
	}
}

// TestBTree32 is the generic instantiation at uint32 for the key-size
// experiment, for both in-node searches: every present key, every
// absent key between two, 0 (whose lower bound reads no node) and
// MaxUint32 (above every key) find their rank.
func TestBTree32(t *testing.T) {
	keys := make([]uint32, 5000)
	for i := range keys {
		keys[i] = uint32(i*7 + 1)
	}
	for _, interp := range []bool{false, true} {
		tr := NewTree(keys, interp)
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			for x, want := range map[uint32]int{k: i, k - 1: i, k + 3: i + 1} {
				if r := tr.Ceiling(x, nil); r != want {
					t.Fatalf("interp=%v: Ceiling(%d) = %d, want %d", interp, x, r, want)
				}
			}
		}
		for x, want := range map[uint32]int{0: 0, math.MaxUint32: len(keys)} {
			if r := tr.Ceiling(x, nil); r != want {
				t.Fatalf("interp=%v: Ceiling(%d) = %d, want %d", interp, x, r, want)
			}
		}
		if got, want := tr.SizeBytes(), 4*(5000+157+5); got != want {
			t.Fatalf("SizeBytes() = %d, want %d", got, want)
		}
	}
}

// TestLookupMatchesSubsetLowerBound: the bound of every probe is the one
// the rank of its lower bound among the subset keys gives — the key of
// rank r is data key r*stride — on every dataset and on runs of equal
// keys, for both in-node searches.
func TestLookupMatchesSubsetLowerBound(t *testing.T) {
	sets := map[string][]core.Key{}
	for _, name := range dataset.All() {
		sets[string(name)] = dataset.MustGenerate(name, 200_000, 1)
	}
	dups := make([]core.Key, 20_000)
	for i := range dups {
		dups[i] = core.Key(100 + i/7*3) // runs of seven equal keys
	}
	sets["dups"] = dups
	for name, keys := range sets {
		n := len(keys)
		probes := indextest.ProbesFor(keys)
		for _, stride := range []int{1, 3, 16, 512} {
			var subset []core.Key
			for i := 0; i < n; i += stride {
				subset = append(subset, keys[i])
			}
			for _, interp := range []bool{false, true} {
				idx, err := Builder{Stride: stride, Interpolate: interp}.Build(keys)
				if err != nil {
					t.Fatal(err)
				}
				for _, x := range probes {
					r := core.LowerBound(subset, x)
					want := core.Bound{Hi: n}
					if r > 0 {
						want.Lo = (r-1)*stride + 1
					}
					if r < len(subset) {
						want.Hi = r*stride + 1
					}
					if got := idx.Lookup(x); got != want || !core.ValidBound(keys, x, got) {
						t.Fatalf("%s stride=%d interp=%v: Lookup(%d) = %v, want %v", name, stride, interp, x, got, want)
					}
				}
			}
		}
	}
}

// TestSizeBytesIsLevelBytes: the footprint is the level arrays and
// nothing else, eight bytes per key of every level.
func TestSizeBytesIsLevelBytes(t *testing.T) {
	keys := dataset.MustGenerate(dataset.OSM, 100_000, 1)
	for _, stride := range []int{1, 16, 512} {
		b, _ := Builder{Stride: stride}.Build(keys)
		idx := b.(*Index)
		want := 0
		for _, lvl := range idx.tree.levels {
			want += 8 * len(lvl)
		}
		if got := idx.SizeBytes(); got != want || want == 0 {
			t.Errorf("stride %d: SizeBytes() = %d, level arrays hold %d B", stride, got, want)
		}
	}
}

// TestBuildAllocs: a build allocates the subset keys, the level list,
// each upper level and the Index — no per-node allocation.
func TestBuildAllocs(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 200_000, 1)
	for _, stride := range []int{1, 16, 512} {
		b := Builder{Stride: stride}
		idx, _ := b.Build(keys)
		height := len(idx.(*Index).tree.levels)
		if allocs := testing.AllocsPerRun(3, func() { _, _ = b.Build(keys) }); allocs > float64(height+2) {
			t.Errorf("stride %d: Build makes %.0f allocations, want at most %d (height %d)", stride, allocs, height+2, height)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 5000, 1)
	for _, b := range []Builder{{Stride: 1}, {Stride: 7, Interpolate: true}} {
		idx, _ := b.Build(keys)
		got, err := Decode(binio.NewReader(encoded(t, idx.(*Index))))
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if !reflect.DeepEqual(got, idx) {
			t.Fatalf("%s: decoded index differs from the encoded one", b.Name())
		}
	}
}

// TestDecodeRejectsWrongPositions: the wire keeps no positions, since
// entry r is data key r*stride, so Decode holds the entry count to one
// per stride and the entries to sorted order: a missing or misplaced
// entry would turn ranks into wrong positions.
func TestDecodeRejectsWrongPositions(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 1000, 1)
	idx, _ := Builder{Stride: 4}.Build(keys)
	data := encoded(t, idx.(*Index))
	const header = 8 + 4 + 1 + 4
	short := append([]byte(nil), data[:len(data)-8]...)
	binary.LittleEndian.PutUint32(short[header-4:], uint32(len(keys)/4-1))
	if _, err := Decode(binio.NewReader(short)); !errors.Is(err, binio.ErrCorrupt) {
		t.Errorf("one entry short: err = %v, want ErrCorrupt", err)
	}
	swapped := append([]byte(nil), data...)
	e10, e11 := swapped[header+10*8:header+11*8], swapped[header+11*8:header+12*8]
	tmp := slices.Clone(e10)
	copy(e10, e11)
	copy(e11, tmp)
	if _, err := Decode(binio.NewReader(swapped)); !errors.Is(err, binio.ErrCorrupt) {
		t.Errorf("entries 10 and 11 swapped: err = %v, want ErrCorrupt", err)
	}
}

func encoded(t *testing.T, idx *Index) []byte {
	t.Helper()
	w := binio.NewWriter(nil)
	if err := idx.Encode(w); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), w.Buffered()...)
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
	if hb, hs := len(big.(*Index).tree.levels), len(small.(*Index).tree.levels); hb <= hs {
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

// Validate checks the flat B+tree invariants; used by tests.
func (t *Tree[K]) Validate() error {
	if len(t.levels[len(t.levels)-1]) > fanout {
		return errors.New("btree: more than one root node")
	}
	if !slices.IsSorted(t.levels[0]) {
		return errors.New("btree: leaf keys out of order")
	}
	for l := 1; l < len(t.levels); l++ {
		below, lvl := t.levels[l-1], t.levels[l]
		if len(lvl) != (len(below)+fanout-1)/fanout {
			return fmt.Errorf("btree: level %d has %d keys over %d below", l, len(lvl), len(below))
		}
		for j, k := range lvl {
			if k != slices.Max(below[j*fanout:min((j+1)*fanout, len(below))]) {
				return fmt.Errorf("btree: level %d key %d is not the max of its node", l, j)
			}
		}
	}
	return nil
}
