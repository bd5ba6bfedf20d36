// Package art implements the Adaptive Radix Tree of Leis et al.
// (ICDE'13; Section 4.1.1 of the paper) over fixed-length 8-byte
// big-endian keys, with the four adaptive node sizes (Node4, Node16,
// Node48, Node256) and path compression.
//
// The benchmark uses ART as an ordered index: Ceiling(x) finds the
// smallest stored key >= x by byte-wise traversal, which coincides
// with numeric order for big-endian encodings.
package art

import (
	"encoding/binary"
	"errors"

	"repro/internal/core"
)

const keyLen = 8

type nodeKind uint8

const (
	kindLeaf nodeKind = iota
	kind4
	kind16
	kind48
	kind256
)

// node is a tagged union over the ART node kinds. Leaves store the
// full key and its value; inner nodes store a compressed path prefix
// and children indexed by the next key byte.
type node struct {
	kind   nodeKind
	prefix []byte // compressed path (inner nodes)

	// Leaf payload.
	key core.Key
	val int32

	// Node4/Node16: sorted byte keys with parallel children.
	bytes    []byte
	children []*node

	// Node48: 256-entry indirection into up to 48 children.
	childIdx *[256]uint8 // 0 = empty, else children[childIdx[b]-1]

	// Node256 uses children[b] directly (len 256).

	id int32 // stable node number for the perf-counter simulation
}

func newLeaf(key core.Key, val int32) *node {
	return &node{kind: kindLeaf, key: key, val: val}
}

func keyBytes(key core.Key) [keyLen]byte {
	var b [keyLen]byte
	binary.BigEndian.PutUint64(b[:], key)
	return b
}

// tree is an adaptive radix tree mapping uint64 keys to positions.
type tree struct {
	root   *node
	counts [5]int // node population per kind, for size accounting
	nextID int32
}

// stamp assigns a fresh id to a newly created node.
func (t *tree) stamp(n *node) *node {
	n.id = t.nextID
	t.nextID++
	return n
}

// newTree returns an empty tree.
func newTree() *tree { return &tree{} }

// put adds key -> val. Inserting an existing key overwrites its
// value.
func (t *tree) put(key core.Key, val int32) {
	kb := keyBytes(key)
	if t.root == nil {
		t.root = t.stamp(newLeaf(key, val))
		t.counts[kindLeaf]++
		return
	}
	t.insert(&t.root, kb[:], 0, key, val)
}

// insert descends to place the leaf, overwriting an existing key's
// value.
func (t *tree) insert(ref **node, kb []byte, depth int, key core.Key, val int32) {
	n := *ref
	if n.kind == kindLeaf {
		if n.key == key {
			n.val = val
			return
		}
		// Split: create an inner node on the common prefix.
		ob := keyBytes(n.key)
		common := 0
		for depth+common < keyLen && ob[depth+common] == kb[depth+common] {
			common++
		}
		in := t.stamp(&node{kind: kind4, prefix: append([]byte(nil), kb[depth:depth+common]...)})
		t.counts[kind4]++
		nl := t.stamp(newLeaf(key, val))
		t.counts[kindLeaf]++
		in.addChild(ob[depth+common], n)
		in.addChild(kb[depth+common], nl)
		*ref = in
		return
	}
	// Match the compressed path.
	p := n.prefix
	for i := 0; i < len(p); i++ {
		if kb[depth+i] != p[i] {
			// Prefix mismatch: split the path at i.
			in := t.stamp(&node{kind: kind4, prefix: append([]byte(nil), p[:i]...)})
			t.counts[kind4]++
			n.prefix = append([]byte(nil), p[i+1:]...)
			nl := t.stamp(newLeaf(key, val))
			t.counts[kindLeaf]++
			in.addChild(p[i], n)
			in.addChild(kb[depth+i], nl)
			*ref = in
			return
		}
	}
	depth += len(p)
	b := kb[depth]
	if child := n.findChild(b); child != nil {
		t.insert(child, kb, depth+1, key, val)
		return
	}
	nl := t.stamp(newLeaf(key, val))
	t.counts[kindLeaf]++
	t.grow(ref)
	(*ref).addChild(b, nl)
}

// grow upgrades a full node to the next kind.
func (t *tree) grow(ref **node) {
	n := *ref
	switch n.kind {
	case kind4:
		if len(n.bytes) < 4 {
			return
		}
		t.counts[kind4]--
		t.counts[kind16]++
		n.kind = kind16
	case kind16:
		if len(n.bytes) < 16 {
			return
		}
		t.counts[kind16]--
		t.counts[kind48]++
		nn := &node{kind: kind48, prefix: n.prefix, childIdx: new([256]uint8), id: n.id}
		nn.children = make([]*node, 0, 48)
		for i, b := range n.bytes {
			nn.children = append(nn.children, n.children[i])
			nn.childIdx[b] = uint8(len(nn.children))
		}
		*ref = nn
	case kind48:
		if len(n.children) < 48 {
			return
		}
		t.counts[kind48]--
		t.counts[kind256]++
		nn := &node{kind: kind256, prefix: n.prefix, children: make([]*node, 256), id: n.id}
		for b := 0; b < 256; b++ {
			if ci := n.childIdx[b]; ci != 0 {
				nn.children[b] = n.children[ci-1]
			}
		}
		*ref = nn
	}
}

// addChild inserts child under byte b, keeping Node4/16 sorted.
func (n *node) addChild(b byte, child *node) {
	switch n.kind {
	case kind4, kind16:
		i := 0
		for i < len(n.bytes) && n.bytes[i] < b {
			i++
		}
		n.bytes = append(n.bytes, 0)
		copy(n.bytes[i+1:], n.bytes[i:])
		n.bytes[i] = b
		n.children = append(n.children, nil)
		copy(n.children[i+1:], n.children[i:])
		n.children[i] = child
	case kind48:
		n.children = append(n.children, child)
		n.childIdx[b] = uint8(len(n.children))
	case kind256:
		n.children[b] = child
	}
}

// findChild returns a reference to the child for byte b, or nil.
func (n *node) findChild(b byte) **node {
	switch n.kind {
	case kind4, kind16:
		for i, nb := range n.bytes {
			if nb == b {
				return &n.children[i]
			}
			if nb > b {
				return nil
			}
		}
		return nil
	case kind48:
		if ci := n.childIdx[b]; ci != 0 {
			return &n.children[ci-1]
		}
		return nil
	case kind256:
		if n.children[b] != nil {
			return &n.children[b]
		}
		return nil
	}
	return nil
}

// childAtOrAfter returns the child with the smallest byte >= b, along
// with whether that byte equals b exactly.
func (n *node) childAtOrAfter(b byte) (child *node, exact bool) {
	switch n.kind {
	case kind4, kind16:
		for i, nb := range n.bytes {
			if nb >= b {
				return n.children[i], nb == b
			}
		}
		return nil, false
	case kind48:
		if ci := n.childIdx[b]; ci != 0 {
			return n.children[ci-1], true
		}
		for bb := int(b) + 1; bb < 256; bb++ {
			if ci := n.childIdx[bb]; ci != 0 {
				return n.children[ci-1], false
			}
		}
		return nil, false
	case kind256:
		if n.children[b] != nil {
			return n.children[b], true
		}
		for bb := int(b) + 1; bb < 256; bb++ {
			if n.children[bb] != nil {
				return n.children[bb], false
			}
		}
		return nil, false
	}
	return nil, false
}

// minLeaf returns the leftmost leaf of the subtree.
func minLeaf(n *node) *node {
	for n.kind != kindLeaf {
		switch n.kind {
		case kind4, kind16:
			n = n.children[0]
		case kind48:
			for b := 0; b < 256; b++ {
				if ci := n.childIdx[b]; ci != 0 {
					n = n.children[ci-1]
					break
				}
			}
		case kind256:
			for b := 0; b < 256; b++ {
				if n.children[b] != nil {
					n = n.children[b]
					break
				}
			}
		}
	}
	return n
}

// ceiling returns the value of the smallest stored key >= x. A
// non-nil visit is called for every node touched, the path the
// performance-counter simulation replays.
func (t *tree) ceiling(x core.Key, visit func(NodeStep)) (key core.Key, val int32, found bool) {
	if t.root == nil {
		return 0, 0, false
	}
	kb := keyBytes(x)
	lf := ceiling(t.root, kb[:], 0, visit)
	if lf == nil {
		return 0, 0, false
	}
	return lf.key, lf.val, true
}

// ceiling finds the smallest leaf with key >= kb within the subtree,
// assuming the subtree's path so far equals kb[:depth]. Returns nil
// when every key in the subtree is smaller.
func ceiling(n *node, kb []byte, depth int, visit func(NodeStep)) *node {
	if visit != nil {
		visit(NodeStep{ID: n.id, SizeBytes: nodeBytes(n.kind)})
	}
	if n.kind == kindLeaf {
		ob := keyBytes(n.key)
		for i := depth; i < keyLen; i++ {
			if ob[i] > kb[i] {
				return n
			}
			if ob[i] < kb[i] {
				return nil
			}
		}
		return n // equal
	}
	// Compare the compressed path against the query.
	for i, pb := range n.prefix {
		if pb > kb[depth+i] {
			return minLeafVisit(n, visit) // whole subtree is greater
		}
		if pb < kb[depth+i] {
			return nil // whole subtree is smaller
		}
	}
	depth += len(n.prefix)
	child, exact := n.childAtOrAfter(kb[depth])
	if child == nil {
		return nil
	}
	if exact {
		if lf := ceiling(child, kb, depth+1, visit); lf != nil {
			return lf
		}
		// Everything under the exact child is smaller; take the next one.
		next, _ := n.childAtOrAfter(kb[depth] + 1)
		if kb[depth] == 0xFF || next == nil {
			return nil
		}
		return minLeafVisit(next, visit)
	}
	return minLeafVisit(child, visit)
}

// minLeafVisit is minLeaf reporting only the leaf it reaches: min-leaf
// descents touch one node per remaining byte but those nodes are
// usually adjacent; the dominant cost is the final leaf line.
func minLeafVisit(n *node, visit func(NodeStep)) *node {
	lf := minLeaf(n)
	if visit != nil {
		visit(NodeStep{ID: lf.id, SizeBytes: leafBytes})
	}
	return lf
}

// Node size accounting, approximating the C++ struct sizes.
const (
	leafBytes    = 16
	node4Bytes   = 16 + 4 + 4*8
	node16Bytes  = 16 + 16 + 16*8
	node48Bytes  = 16 + 256 + 48*8
	node256Bytes = 16 + 256*8
)

// sizeBytes estimates the tree footprint.
func (t *tree) sizeBytes() int {
	return t.counts[kindLeaf]*leafBytes +
		t.counts[kind4]*node4Bytes +
		t.counts[kind16]*node16Bytes +
		t.counts[kind48]*node48Bytes +
		t.counts[kind256]*node256Bytes
}

// Index adapts tree to core.Index with the subset-stride size knob.
type Index struct {
	tree   *tree
	n      int
	stride int
	maxPos int32 // data position of the last subset key
}

// Builder builds ART indexes with a fixed stride.
type Builder struct {
	// Stride inserts every Stride-th key. Clamped to at least 1.
	Stride int
}

// Name implements core.Builder.
func (b Builder) Name() string { return "ART" }

// Build implements core.Builder.
func (b Builder) Build(keys []core.Key) (core.Index, error) {
	n := len(keys)
	if n == 0 {
		return nil, errors.New("art: empty key set")
	}
	stride := b.Stride
	if stride < 1 {
		stride = 1
	}
	t := newTree()
	var maxPos int32
	for i := 0; i < n; i += stride {
		// ART stores unique keys; for duplicate data keys keep the
		// first (lower-bound) position. Sorted input makes duplicate
		// subset keys adjacent.
		if i > 0 && keys[i] == keys[i-stride] {
			continue
		}
		t.put(keys[i], int32(i))
		maxPos = int32(i)
	}
	return &Index{tree: t, n: n, stride: stride, maxPos: maxPos}, nil
}

// Lookup implements core.Index.
func (idx *Index) Lookup(key core.Key) core.Bound { return idx.Trace(key, nil) }

// Trace is Lookup's descent: a non-nil visit is called for every node
// touched, including backtracking and min-leaf descents.
func (idx *Index) Trace(key core.Key, visit func(NodeStep)) core.Bound {
	_, pos, found := idx.tree.ceiling(key, visit)
	if !found {
		// Every indexed key is smaller: the lower bound lies after the
		// last subset position.
		return core.Bound{Lo: int(idx.maxPos) + 1, Hi: idx.n}.Clamp(idx.n)
	}
	lo := int(pos) - idx.stride + 1
	if lo < 0 {
		lo = 0
	}
	hi := int(pos) + 1
	return core.Bound{Lo: lo, Hi: hi}
}

// SizeBytes implements core.Index.
func (idx *Index) SizeBytes() int { return idx.tree.sizeBytes() }

// Name implements core.Index.
func (idx *Index) Name() string { return "ART" }

// NodeStep is one node of a descent as Trace reports it: its stable id
// and its size class.
type NodeStep struct {
	ID        int32
	SizeBytes int
}

func nodeBytes(k nodeKind) int {
	switch k {
	case kindLeaf:
		return leafBytes
	case kind4:
		return node4Bytes
	case kind16:
		return node16Bytes
	case kind48:
		return node48Bytes
	default:
		return node256Bytes
	}
}
