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

import "errors"

// KeyT constrains the key types the tree supports.
type KeyT interface {
	~uint32 | ~uint64
}

// fanout is the maximum number of keys per node. 32 eight-byte keys
// fill four cache lines, matching STX's default node size class.
const fanout = 32

type node[K KeyT] struct {
	keys     []K
	children []*node[K] // inner nodes: len(children) == len(keys)+1
	vals     []int32    // leaves: data positions, parallel to keys
	next     *node[K]   // leaf chain
	prev     *node[K]
	id       int32 // stable node number for the perf-counter simulation
}

func (nd *node[K]) isLeaf() bool { return nd.children == nil }

// Tree is a bulk-loaded B+tree mapping keys to data positions.
type Tree[K KeyT] struct {
	root   *node[K]
	height int
	nNodes int
	count  int
	// interpolate selects interpolation search inside nodes instead of
	// binary search — this is what turns the BTree into the paper's
	// IBTree (Graefe's interpolation-based B-tree).
	interpolate bool
}

// NewTree bulk-loads a tree from sorted (key, pos) pairs. keys must be
// sorted ascending.
func NewTree[K KeyT](keys []K, vals []int32, interpolate bool) (*Tree[K], error) {
	if len(keys) != len(vals) {
		return nil, errors.New("btree: keys/vals length mismatch")
	}
	t := &Tree[K]{interpolate: interpolate}
	if len(keys) == 0 {
		t.root = &node[K]{}
		t.nNodes = 1
		t.height = 1
		return t, nil
	}
	// Build full leaves left to right, then build inner levels over
	// the max key of each child.
	var leaves []*node[K]
	for i := 0; i < len(keys); i += fanout {
		end := i + fanout
		if end > len(keys) {
			end = len(keys)
		}
		lf := &node[K]{
			keys: append([]K(nil), keys[i:end]...),
			vals: append([]int32(nil), vals[i:end]...),
			id:   int32(len(leaves)),
		}
		if n := len(leaves); n > 0 {
			leaves[n-1].next = lf
			lf.prev = leaves[n-1]
		}
		leaves = append(leaves, lf)
	}
	t.nNodes = len(leaves)
	t.count = len(keys)
	level := leaves
	t.height = 1
	for len(level) > 1 {
		var upper []*node[K]
		for i := 0; i < len(level); i += fanout + 1 {
			end := i + fanout + 1
			if end > len(level) {
				end = len(level)
			}
			in := &node[K]{children: append([]*node[K](nil), level[i:end]...)}
			in.id = int32(t.nNodes + len(upper))
			// Separators are the max keys of all children but the last.
			in.keys = make([]K, end-i-1)
			for c := 0; c < end-i-1; c++ {
				in.keys[c] = maxKey(level[i+c])
			}
			upper = append(upper, in)
		}
		t.nNodes += len(upper)
		level = upper
		t.height++
	}
	t.root = level[0]
	return t, nil
}

func maxKey[K KeyT](nd *node[K]) K {
	for !nd.isLeaf() {
		nd = nd.children[len(nd.children)-1]
	}
	return nd.keys[len(nd.keys)-1]
}

// searchNode returns the first index i in nd.keys with keys[i] >= x
// (binary or interpolation search per tree configuration).
func (t *Tree[K]) searchNode(nd *node[K], x K) int {
	keys := nd.keys
	if t.interpolate && len(keys) > 8 {
		lo, hi := 0, len(keys)
		first, last := keys[0], keys[len(keys)-1]
		if x > first && x <= last && last > first {
			frac := float64(x-first) / float64(last-first)
			pos := int(frac * float64(len(keys)-1))
			// One interpolation probe, then fall back to binary search
			// on the surviving half — the in-node arrays are small.
			if keys[pos] < x {
				lo = pos + 1
			} else {
				hi = pos + 1
			}
		}
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if keys[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Ceiling returns the value of the smallest key >= x, with found=false
// when every key is smaller (or the tree is empty). The second return
// is the value (data position) of the predecessor entry — the largest
// key < x — with predOK=false when x is not greater than any key. A
// non-nil visit is called with the id of every node searched, root to
// leaf: the path the performance-counter simulation replays.
func (t *Tree[K]) Ceiling(x K, visit func(id int32)) (val int32, found bool, pred int32, predOK bool) {
	nd := t.root
	for !nd.isLeaf() {
		if visit != nil {
			visit(nd.id)
		}
		i := t.searchNode(nd, x)
		// Inner separators are child maxima: child i holds keys <= keys[i].
		if i == len(nd.keys) {
			nd = nd.children[len(nd.children)-1]
		} else {
			nd = nd.children[i]
		}
	}
	if visit != nil {
		visit(nd.id)
	}
	i := t.searchNode(nd, x)
	if i == len(nd.keys) {
		// All keys in this leaf are < x. With max-separator routing
		// this only happens in the rightmost subtree; the ceiling is
		// in the next leaf if any.
		if len(nd.keys) > 0 {
			pred, predOK = nd.vals[len(nd.keys)-1], true
		} else if nd.prev != nil && len(nd.prev.keys) > 0 {
			pred, predOK = nd.prev.vals[len(nd.prev.keys)-1], true
		}
		if nd.next != nil && len(nd.next.keys) > 0 {
			return nd.next.vals[0], true, pred, predOK
		}
		return 0, false, pred, predOK
	}
	if i > 0 {
		pred, predOK = nd.vals[i-1], true
	} else if nd.prev != nil && len(nd.prev.keys) > 0 {
		pred, predOK = nd.prev.vals[len(nd.prev.keys)-1], true
	}
	return nd.vals[i], true, pred, predOK
}

// SizeBytes estimates the in-memory footprint: per entry one key and
// one value, per node slice headers and child pointers.
func (t *Tree[K]) SizeBytes() int {
	var k K
	keySize := 8
	if _, ok := any(k).(uint32); ok {
		keySize = 4
	}
	const nodeOverhead = 5 * 24 // slice headers + leaf links
	inner := t.nNodes - (t.count+fanout-1)/fanout
	if inner < 0 {
		inner = 0
	}
	return t.count*(keySize+4) + t.nNodes*nodeOverhead + inner*fanout/2*8
}

// numNodes reports the node count.
func (t *Tree[K]) numNodes() int { return t.nNodes }
