package btree

import (
	"errors"

	"repro/internal/core"
)

// Index adapts Tree to the benchmark's core.Index contract using the
// paper's subset-insertion size knob: every Stride-th key of the data
// is inserted, so bounds have width at most Stride.
type Index struct {
	tree   *Tree[core.Key]
	n      int
	stride int
	name   string
}

// Builder builds B+tree indexes with a fixed stride.
type Builder struct {
	// Stride inserts every Stride-th key (1 = every key, maximum size
	// and accuracy). Clamped to at least 1.
	Stride int
	// Interpolate selects in-node interpolation search (IBTree).
	Interpolate bool
}

// Name implements core.Builder.
func (b Builder) Name() string {
	if b.Interpolate {
		return "IBTree"
	}
	return "BTree"
}

// Build implements core.Builder.
func (b Builder) Build(keys []core.Key) (core.Index, error) {
	n := len(keys)
	if n == 0 {
		return nil, errors.New("btree: empty key set")
	}
	stride := b.Stride
	if stride < 1 {
		stride = 1
	}
	subsetKeys := make([]core.Key, 0, n/stride+1)
	subsetVals := make([]int32, 0, n/stride+1)
	for i := 0; i < n; i += stride {
		subsetKeys = append(subsetKeys, keys[i])
		subsetVals = append(subsetVals, int32(i))
	}
	t, err := NewTree(subsetKeys, subsetVals, b.Interpolate)
	if err != nil {
		return nil, err
	}
	return &Index{tree: t, n: n, stride: stride, name: b.Name()}, nil
}

// Lookup implements core.Index.
func (idx *Index) Lookup(key core.Key) core.Bound { return idx.Trace(key, nil) }

// Trace is Lookup's descent; visit is the tree's Ceiling visitor.
func (idx *Index) Trace(key core.Key, visit func(id int32)) core.Bound {
	ceilPos, found, predPos, predOK := idx.tree.Ceiling(key, visit)
	lo := 0
	if predOK {
		lo = int(predPos) + 1
	}
	hi := idx.n
	if found {
		hi = int(ceilPos) + 1
	}
	if hi > idx.n {
		hi = idx.n
	}
	if lo > hi {
		lo = hi
	}
	return core.Bound{Lo: lo, Hi: hi}
}

// SizeBytes implements core.Index.
func (idx *Index) SizeBytes() int { return idx.tree.SizeBytes() }

// Name implements core.Index.
func (idx *Index) Name() string { return idx.name }

// NumNodes reports the underlying tree's node count.
func (idx *Index) NumNodes() int { return idx.tree.numNodes() }
