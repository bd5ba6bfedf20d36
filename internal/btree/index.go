package btree

import (
	"errors"

	"repro/internal/core"
)

// Index adapts Tree to the benchmark's core.Index contract using the
// paper's subset-insertion size knob: every Stride-th key of the data
// is inserted, so bounds have width at most Stride. The key of rank r
// in the tree is data key r*stride, so no position is stored.
type Index struct {
	tree   Tree[core.Key]
	n      int
	stride int
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
	stride := max(b.Stride, 1)
	subset := make([]core.Key, 0, (n+stride-1)/stride)
	for i := 0; i < n; i += stride {
		subset = append(subset, keys[i])
	}
	return &Index{tree: NewTree(subset, b.Interpolate), n: n, stride: stride}, nil
}

// Lookup implements core.Index.
func (idx *Index) Lookup(key core.Key) core.Bound { return idx.Trace(key, nil) }

// Trace is Lookup's descent; t is the tree's Ceiling tracer.
func (idx *Index) Trace(key core.Key, t core.Tracer) core.Bound {
	// The ceiling of rank r is data key r*stride and its predecessor
	// data key (r-1)*stride, so the first key >= key lies in
	// [(r-1)*stride+1, r*stride+1), cut to [0, n) at either end.
	r := idx.tree.Ceiling(key, t)
	b := core.Bound{Hi: idx.n}
	if r > 0 {
		b.Lo = (r-1)*idx.stride + 1
	}
	if r < len(idx.tree.levels[0]) {
		b.Hi = r*idx.stride + 1
	}
	return b
}

// Arrays describes the index: the tree's levels, the subset keys first.
func (idx *Index) Arrays() []core.Array { return idx.tree.arrays() }

// SizeBytes implements core.Index.
func (idx *Index) SizeBytes() int { return idx.tree.SizeBytes() }

// Name implements core.Index.
func (idx *Index) Name() string { return Builder{Interpolate: idx.tree.interpolate}.Name() }
