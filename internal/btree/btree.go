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
	"unsafe"

	"repro/internal/search"
)

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
type Tree[K search.Unsigned] struct {
	levels [][]K
	// interpolate adds one interpolation probe to the in-node search
	// before the ladder — this is what turns the BTree into the paper's
	// IBTree (Graefe's interpolation-based B-tree).
	interpolate bool
}

// NewTree bulk-loads a tree over keys, which must be sorted ascending.
// The tree keeps keys as its bottom level; it does not copy them.
func NewTree[K search.Unsigned](keys []K, interpolate bool) Tree[K] {
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

// NodeStep is one node of a descent as Ceiling reports it: the node,
// and the slots of it the in-node search read.
type NodeStep struct {
	Level, Node int
	// Ends is set when IBTree read the node's first and last keys to
	// interpolate between them, and Probe is the slot it then compared
	// (-1 when x lay outside the two).
	Ends  bool
	Probe int
	// Lo, Hi and Rank are the window the ladder searched and the slot
	// it returned.
	Lo, Hi, Rank int
}

// Ceiling returns the rank of the smallest key >= x, or the key count
// when every key is smaller. Each node is searched for the rank of x-1
// by the mask form of search's halving ladder (search.RankBranchless),
// after IBTree's one interpolation probe; x == 0 reads no node, as
// every key is >= 0. A non-nil visit is called with every node
// searched, root first: the path the performance-counter simulation
// replays.
func (t *Tree[K]) Ceiling(x K, visit func(NodeStep)) int {
	if x == 0 {
		return 0
	}
	below := x - 1 // the keys < x are the keys <= x-1
	node := 0
	for l := len(t.levels) - 1; ; l-- {
		lvl := t.levels[l]
		base := node * Fanout
		span := lvl[base:min(base+Fanout, len(lvl))]
		// IBTree's one interpolation probe, in a node of more than 8
		// keys whose end keys x lies between, halves the window at the
		// slot their line predicts; the nodes are small, so the ladder
		// finishes the search.
		lo, hi, probe := 0, len(span), -1
		ends := t.interpolate && len(span) > 8
		if ends && x > span[0] && x <= span[len(span)-1] {
			first, last := span[0], span[len(span)-1]
			probe = int(float64(x-first) / float64(last-first) * float64(len(span)-1))
			if span[probe] < x {
				lo = probe + 1
			} else {
				hi = probe + 1
			}
		}
		i := search.RankBranchless(span, below, lo, hi)
		if visit != nil {
			visit(NodeStep{l, node, ends, probe, lo, hi, i})
		}
		if l == 0 {
			return base + i
		}
		// A node's max is its parent's entry, so below the root the
		// search always lands inside the node; only at the root can
		// every key be smaller than x.
		if i == len(span) {
			return len(t.levels[0])
		}
		node = base + i
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
