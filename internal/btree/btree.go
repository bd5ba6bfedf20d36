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
	"repro/internal/core"
	"repro/internal/search"
)

// fanout is the maximum number of keys per node: node j of a level is
// its keys [j*fanout, (j+1)*fanout). 32 eight-byte keys fill four cache
// lines, matching STX's default node size class.
const fanout = 32

// Tree is a bulk-loaded B+tree over a sorted key array, stored without
// pointers or positions: levels[0] is the keys themselves, and
// levels[l+1][j] is the max of node j of level l, the fanout keys
// levels[l][j*fanout : (j+1)*fanout]. So entry i of a level-(l+1) node
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
	for n := len(keys); n > fanout; n = (n + fanout - 1) / fanout {
		height++
	}
	t := Tree[K]{levels: make([][]K, 1, height), interpolate: interpolate}
	t.levels[0] = keys
	for cur := keys; len(cur) > fanout; {
		up := make([]K, (len(cur)+fanout-1)/fanout)
		for j := range up {
			up[j] = cur[min((j+1)*fanout, len(cur))-1]
		}
		t.levels = append(t.levels, up)
		cur = up
	}
	return t
}

// Ceiling returns the rank of the smallest key >= x, or the key count
// when every key is smaller. Each node is searched for the rank of x-1
// by the mask form of search's halving ladder (search.RankBranchless),
// after IBTree's one interpolation probe; x == 0 reads no node, as
// every key is >= 0. A non-nil tr sees every node searched, root first
// (see trace): the path the performance-counter simulation replays.
func (t *Tree[K]) Ceiling(x K, tr core.Tracer) int {
	if x == 0 {
		return 0
	}
	below := x - 1 // the keys < x are the keys <= x-1
	node := 0
	for l := len(t.levels) - 1; ; l-- {
		lvl := t.levels[l]
		base := node * fanout
		span := lvl[base:min(base+fanout, len(lvl))]
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
		if tr != nil {
			trace(tr, l, base, len(span), ends, probe, lo, hi, i)
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

// trace reports the search of the n-key node at base of level l, the
// array of that ordinal: IBTree's read of its end keys, when ends, and
// of the slot probe it then compared (-1 when x lay outside the two),
// then the ladder over slots [lo, hi), which returned slot i.
func trace(tr core.Tracer, l, base, n int, ends bool, probe, lo, hi, i int) {
	if ends {
		tr.Read(l, base, 1)
		tr.Read(l, base+n-1, 1)
		tr.Work(2) // the end keys' difference
	}
	if probe >= 0 {
		tr.Work(8) // the interpolation's float work
		tr.Read(l, base+probe, 1)
		tr.Compare(0xB3, lo > probe) // taken: x is right of the probe
	}
	tr.Search(l, base+lo, base+hi, base+i, 0)
}

// arrays describes the level arrays, the bottom level's keys first.
func (t *Tree[K]) arrays() []core.Array {
	out := make([]core.Array, len(t.levels))
	for l, lvl := range t.levels {
		out[l] = core.ArrayOf("level", lvl)
	}
	return out
}

// SizeBytes is the footprint of the level arrays, the bottom level's
// keys included.
func (t *Tree[K]) SizeBytes() int { return core.SizeOf(t.arrays()...) }
