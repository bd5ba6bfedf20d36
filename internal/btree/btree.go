// Package btree implements an STX-style B+tree baseline (Section 4.1.1
// of the paper), generic over 32- and 64-bit keys for the key-size
// experiment.
//
// The size/performance knob is the paper's subset-insertion technique:
// a stride-s tree indexes every s-th key of the data array, so any
// lookup resolves to a search bound of width s over the full array
// (Section 2.1's "B-Tree with an error bound of s-1").
//
// The tree is bulk-loaded once from the sorted data: the benchmarks are
// read-only.
package btree

import (
	"math/bits"
	"unsafe"
)

// KeyT constrains the key types the tree supports.
type KeyT interface {
	~uint32 | ~uint64
}

// Fanout is the maximum number of keys per node: node j of a level is
// its keys [j*Fanout, (j+1)*Fanout). 32 eight-byte keys fill four cache
// lines, matching STX's default node size class.
const Fanout = 32

// Tree is a bulk-loaded B+tree over a sorted key array, stored without
// pointers or positions: levels[0] is the keys themselves, and
// levels[l+1][j] is the max of node j of level l, the Fanout keys
// levels[l][j*Fanout : (j+1)*Fanout]. So entry i of a level-(l+1) node
// routes to node i of level l, and a key's position is its rank in
// levels[0]. The top level is a single node.
type Tree[K KeyT] struct {
	levels [][]K
	// interpolate selects interpolation search inside nodes instead of
	// binary search — this is what turns the BTree into the paper's
	// IBTree (Graefe's interpolation-based B-tree).
	interpolate bool
}

// NewTree bulk-loads a tree over keys, which must be sorted ascending.
// The tree keeps keys as its bottom level; it does not copy them.
func NewTree[K KeyT](keys []K, interpolate bool) Tree[K] {
	height := 1
	for n := len(keys); n > Fanout; n = (n + Fanout - 1) / Fanout {
		height++
	}
	t := Tree[K]{levels: make([][]K, 1, height), interpolate: interpolate}
	t.levels[0] = keys
	for cur := keys; len(cur) > Fanout; {
		up := make([]K, (len(cur)+Fanout-1)/Fanout)
		for j := range up {
			up[j] = cur[min((j+1)*Fanout, len(cur))-1]
		}
		t.levels = append(t.levels, up)
		cur = up
	}
	return t
}

// search returns the first index i in node with node[i] >= x (binary
// or interpolation search per tree configuration).
func (t *Tree[K]) search(node []K, x K) int {
	lo, hi := 0, len(node)
	if t.interpolate && len(node) > 8 {
		first, last := node[0], node[len(node)-1]
		if x > first && x <= last {
			frac := float64(x-first) / float64(last-first)
			pos := int(frac * float64(len(node)-1))
			// One interpolation probe, then fall back to binary search
			// on the surviving half — the in-node arrays are small.
			if node[pos] < x {
				lo = pos + 1
			} else {
				hi = pos + 1
			}
		}
	}
	if lo == hi {
		return lo
	}
	// Branch-free halving: the answer lies in [lo, lo+n], and each step
	// adds the borrow of node[mid] - x, so a data-dependent compare
	// never becomes a mispredicted branch.
	for n := hi - lo; n > 1; {
		half := n / 2
		_, less := bits.Sub64(uint64(node[lo+half]), uint64(x), 0)
		lo += half * int(less)
		n -= half
	}
	_, less := bits.Sub64(uint64(node[lo]), uint64(x), 0)
	return lo + int(less)
}

// Ceiling returns the rank of the smallest key >= x, or the key count
// when every key is smaller. A non-nil visit is called with the level
// and node number of every node searched, root first: the path the
// performance-counter simulation replays.
func (t *Tree[K]) Ceiling(x K, visit func(level, node int)) int {
	node := 0
	for l := len(t.levels) - 1; ; l-- {
		if visit != nil {
			visit(l, node)
		}
		lvl := t.levels[l]
		lo := node * Fanout
		span := lvl[lo:min(lo+Fanout, len(lvl))]
		i := t.search(span, x)
		if l == 0 {
			return lo + i
		}
		// A node's max is its parent's entry, so below the root the
		// search always lands inside the node; only at the root can
		// every key be smaller than x.
		if i == len(span) {
			return len(t.levels[0])
		}
		node = lo + i
	}
}

// SizeBytes is the footprint of the level arrays, the bottom level's
// keys included.
func (t *Tree[K]) SizeBytes() int {
	var k K
	total := 0
	for _, lvl := range t.levels {
		total += len(lvl) * int(unsafe.Sizeof(k))
	}
	return total
}
