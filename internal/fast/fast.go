// Package fast implements a FAST-style architecture-sensitive search
// tree (Kim et al., SIGMOD'10; Section 4.1.1 of the paper): an implicit
// k-ary tree over a sorted key subset, laid out level by level in flat
// arrays so that each node is a contiguous cache-line-sized block.
//
// The original FAST compares all keys of a node at once with AVX
// gather/compare instructions. Go has no stdlib SIMD, so in-node
// comparison is a scalar scan over the same blocked layout — the
// architectural idea (one memory transfer per level, branch-light
// in-node resolution) is preserved; the SIMD constant factor is not
// (see DESIGN.md substitution 5).
package fast

import (
	"errors"

	"repro/internal/core"
)

// blockKeys is the node width: 16 keys per node. With 64-bit keys a
// node spans two cache lines (one for 32-bit keys, which is where the
// paper's Figure 10 doubling comes from).
const blockKeys = 16

// Tree is an implicit k-ary search tree over a sorted key array,
// generic over key width.
//
// levels[0] is the sorted key array itself; levels[l+1][j] holds the
// maximum key of block j of levels[l] (a block is blockKeys consecutive
// entries), so each upper level is a 16-ary separator directory of the
// level below. The topmost level fits in a single block.
type Tree[K interface{ ~uint32 | ~uint64 }] struct {
	levels [][]K
}

// NewTree builds the implicit tree over sorted keys.
func NewTree[K interface{ ~uint32 | ~uint64 }](keys []K) (*Tree[K], error) {
	if len(keys) == 0 {
		return nil, errors.New("fast: empty key set")
	}
	t := &Tree[K]{levels: [][]K{keys}}
	cur := keys
	for len(cur) > blockKeys {
		nBlocks := (len(cur) + blockKeys - 1) / blockKeys
		up := make([]K, nBlocks)
		for j := 0; j < nBlocks; j++ {
			end := (j+1)*blockKeys - 1
			if end >= len(cur) {
				end = len(cur) - 1
			}
			up[j] = cur[end]
		}
		t.levels = append(t.levels, up)
		cur = up
	}
	return t, nil
}

// Ceiling returns the index (into the sorted key array) of the
// smallest key >= x, or len(keys) when every key is smaller. A non-nil
// tr sees every block scanned, top level first (see trace) — the path
// the performance-counter simulation replays.
func (t *Tree[K]) Ceiling(x K, tr core.Tracer) int {
	top := t.levels[len(t.levels)-1]
	if x > top[len(top)-1] {
		if tr != nil {
			trace(tr, len(t.levels)-1, 0, len(top))
		}
		return len(t.levels[0])
	}
	// Scan the top block, then descend: the selected separator index at
	// level l is the block number to scan at level l-1. Each in-block
	// scan finds the first separator >= x (such an entry exists at
	// every level because x <= global max and block maxima propagate).
	block := 0
	for li := len(t.levels) - 1; li >= 0; li-- {
		lvl := t.levels[li]
		start := block * blockKeys
		end := start + blockKeys
		if end > len(lvl) {
			end = len(lvl)
		}
		if tr != nil {
			trace(tr, li, start, end-start)
		}
		i := start
		for i < end && lvl[i] < x {
			i++
		}
		if li == 0 {
			return i
		}
		block = i
	}
	return 0 // unreachable
}

// trace reports the scan of the n-key block at start of level l, the
// array of that ordinal: one load of the block, two cache lines of
// 64-bit keys, scanned with predictable branches (FAST's SIMD compare
// is branch-free; it is priced as one cheap instruction a key).
func trace(tr core.Tracer, l, start, n int) {
	tr.Read(l, start, n)
	tr.Work(n)
}

// arrays describes every level, the subset key array first (the subset
// is part of the index, distinct from the data).
func (t *Tree[K]) arrays() []core.Array {
	out := make([]core.Array, len(t.levels))
	for l, lvl := range t.levels {
		out[l] = core.ArrayOf("level", lvl)
	}
	return out
}

// SizeBytes reports the footprint of every level.
func (t *Tree[K]) SizeBytes() int { return core.SizeOf(t.arrays()...) }

// index adapts Tree to core.Index with the subset-stride size knob.
type index struct {
	tree   *Tree[core.Key]
	n      int
	stride int
}

// Builder builds FAST indexes with a fixed stride.
type Builder struct {
	// Stride inserts every Stride-th key. Clamped to at least 1.
	Stride int
}

// Name implements core.Builder.
func (b Builder) Name() string { return "FAST" }

// Build implements core.Builder.
func (b Builder) Build(keys []core.Key) (core.Index, error) {
	n := len(keys)
	if n == 0 {
		return nil, errors.New("fast: empty key set")
	}
	stride := b.Stride
	if stride < 1 {
		stride = 1
	}
	subset := make([]core.Key, 0, n/stride+1)
	for i := 0; i < n; i += stride {
		subset = append(subset, keys[i])
	}
	t, err := NewTree(subset)
	if err != nil {
		return nil, err
	}
	return &index{tree: t, n: n, stride: stride}, nil
}

// Lookup implements core.Index.
func (idx *index) Lookup(key core.Key) core.Bound { return idx.Trace(key, nil) }

// Trace is Lookup's descent; t is the tree's Ceiling tracer.
// Subset entry i corresponds to data position i*stride, so the ceiling
// entry brackets the lower bound between the previous subset position
// (exclusive) and its own.
func (idx *index) Trace(key core.Key, t core.Tracer) core.Bound {
	i := idx.tree.Ceiling(key, t)
	m := len(idx.tree.levels[0])
	var lo, hi int
	switch {
	case i == 0:
		lo, hi = 0, 1
	case i == m:
		lo, hi = (m-1)*idx.stride+1, idx.n
	default:
		lo, hi = (i-1)*idx.stride+1, i*idx.stride+1
	}
	if hi > idx.n {
		hi = idx.n
	}
	if lo > hi {
		lo = hi
	}
	return core.Bound{Lo: lo, Hi: hi}
}

// Arrays describes the index: the tree's levels, the subset keys first.
func (idx *index) Arrays() []core.Array { return idx.tree.arrays() }

// SizeBytes implements core.Index.
func (idx *index) SizeBytes() int { return idx.tree.SizeBytes() }

// Name implements core.Index.
func (idx *index) Name() string { return "FAST" }
