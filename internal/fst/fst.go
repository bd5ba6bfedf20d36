// Package fst implements a Fast Succinct Trie baseline (Zhang et al.'s
// SuRF / FST, SIGMOD'18; Figure 8 of the paper) over 8-byte big-endian
// keys using a LOUDS-sparse encoding: per-edge label bytes, a has-child
// bitvector, and a LOUDS bitvector marking each node's first edge, with
// rank/select navigation.
//
// The paper evaluates FST as a structure designed for variable-length
// string keys; on fixed 8-byte integer keys its per-byte traversal
// overhead makes it slower than binary search, which is the Figure 8
// result this implementation reproduces.
package fst

import (
	"encoding/binary"
	"errors"
	"slices"

	"repro/internal/core"
)

const keyLen = 8

// trie is a LOUDS-sparse succinct trie mapping 8-byte keys to values.
type trie struct {
	labels   []byte
	hasChild bitvector
	louds    bitvector
	values   []int32 // one per leaf edge, in key order
}

// newTrie builds the trie from sorted unique keys with their values.
func newTrie(keys []core.Key, vals []int32) (*trie, error) {
	if len(keys) != len(vals) {
		return nil, errors.New("fst: keys/vals length mismatch")
	}
	if len(keys) == 0 {
		return nil, errors.New("fst: empty key set")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return nil, errors.New("fst: keys must be sorted and unique")
		}
	}
	t := &trie{}

	// Build level by level (BFS). A node is identified by the key range
	// [lo, hi) sharing a byte prefix of length depth.
	type span struct{ lo, hi, depth int }
	queue := []span{{0, len(keys), 0}}
	kb := make([][keyLen]byte, len(keys))
	for i, k := range keys {
		binary.BigEndian.PutUint64(kb[i][:], k)
	}
	for len(queue) > 0 {
		nd := queue[0]
		queue = queue[1:]
		first := true
		i := nd.lo
		for i < nd.hi {
			b := kb[i][nd.depth]
			j := i
			for j < nd.hi && kb[j][nd.depth] == b {
				j++
			}
			t.labels = append(t.labels, b)
			t.louds.append(first)
			first = false
			if nd.depth == keyLen-1 {
				// Final byte: leaf edge. Unique keys make j == i+1.
				t.hasChild.append(false)
				t.values = append(t.values, vals[i])
			} else {
				t.hasChild.append(true)
				queue = append(queue, span{i, j, nd.depth + 1})
			}
			i = j
		}
	}
	t.hasChild.finish()
	t.louds.finish()
	t.labels, t.values = slices.Clone(t.labels), slices.Clone(t.values)
	return t, nil
}

// edgeRange returns the half-open edge range [start, end) of node n
// (nodes are numbered in BFS order; node 0 is the root).
func (t *trie) edgeRange(n int) (int, int) {
	start := 0
	if n > 0 {
		start = t.louds.select1(n + 1)
	}
	end := len(t.labels)
	if n+1 < t.louds.ones {
		end = t.louds.select1(n + 2)
	}
	return start, end
}

// childNode returns the node number reached through inner edge i.
func (t *trie) childNode(i int) int {
	// Children are laid out in BFS order: edge with the k-th set
	// has-child bit leads to node k (root is node 0).
	return t.hasChild.rank1(i)
}

// valueIndex returns the value slot of leaf edge i.
func (t *trie) valueIndex(i int) int {
	return i + 1 - t.hasChild.rank1(i) - 1
}

// ceilingValue returns the value for the smallest stored key >= x.
func (t *trie) ceilingValue(x core.Key) (val int32, found bool) {
	var kb [keyLen]byte
	binary.BigEndian.PutUint64(kb[:], x)
	vi := t.ceiling(0, kb[:], 0)
	if vi < 0 {
		return 0, false
	}
	return t.values[vi], true
}

// ceiling returns the value index of the smallest key >= kb within the
// subtree rooted at node n (whose path equals kb[:depth]), or -1.
func (t *trie) ceiling(n int, kb []byte, depth int) int {
	start, end := t.edgeRange(n)
	// Find the first edge with label >= kb[depth].
	i := start
	for i < end && t.labels[i] < kb[depth] {
		i++
	}
	if i == end {
		return -1
	}
	if t.labels[i] == kb[depth] {
		if !t.hasChild.get(i) {
			return t.valueIndex(i) // exact key byte at the leaf level
		}
		if vi := t.ceiling(t.childNode(i), kb, depth+1); vi >= 0 {
			return vi
		}
		i++
		if i == end {
			return -1
		}
	}
	// labels[i] > kb[depth]: everything below is greater; take the
	// minimum key of that subtree.
	return t.minValue(i)
}

// minValue descends through edge i to the smallest key below it.
func (t *trie) minValue(i int) int {
	for t.hasChild.get(i) {
		n := t.childNode(i)
		i, _ = t.edgeRange(n)
	}
	return t.valueIndex(i)
}

// sizeBytes reports the trie footprint.
func (t *trie) sizeBytes() int {
	return len(t.labels) + t.hasChild.size() + t.louds.size() + len(t.values)*4
}

// index adapts trie to core.Index with the subset-stride size knob.
type index struct {
	trie   *trie
	n      int
	stride int
	maxPos int32
}

// Builder builds FST indexes with a fixed stride.
type Builder struct {
	// Stride inserts every Stride-th key. Clamped to at least 1.
	Stride int
}

// Name implements core.Builder.
func (Builder) Name() string { return "FST" }

// Build implements core.Builder.
func (b Builder) Build(keys []core.Key) (core.Index, error) {
	n := len(keys)
	if n == 0 {
		return nil, errors.New("fst: empty key set")
	}
	stride := b.Stride
	if stride < 1 {
		stride = 1
	}
	var (
		sk     []core.Key
		sv     []int32
		maxPos int32
	)
	for i := 0; i < n; i += stride {
		if len(sk) > 0 && sk[len(sk)-1] == keys[i] {
			continue // keep the lower-bound position for duplicates
		}
		sk = append(sk, keys[i])
		sv = append(sv, int32(i))
		maxPos = int32(i)
	}
	t, err := newTrie(sk, sv)
	if err != nil {
		return nil, err
	}
	return &index{trie: t, n: n, stride: stride, maxPos: maxPos}, nil
}

// Lookup implements core.Index (same subset bound mapping as ART).
func (idx *index) Lookup(key core.Key) core.Bound {
	pos, found := idx.trie.ceilingValue(key)
	if !found {
		return core.Bound{Lo: int(idx.maxPos) + 1, Hi: idx.n}.Clamp(idx.n)
	}
	lo := int(pos) - idx.stride + 1
	if lo < 0 {
		lo = 0
	}
	return core.Bound{Lo: lo, Hi: int(pos) + 1}
}

// SizeBytes implements core.Index.
func (idx *index) SizeBytes() int { return idx.trie.sizeBytes() }

// Name implements core.Index.
func (idx *index) Name() string { return "FST" }
