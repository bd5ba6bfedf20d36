// Package art implements the Adaptive Radix Tree of Leis et al.
// (ICDE'13; Section 4.1.1 of the paper) over fixed-length 8-byte
// big-endian keys, with the four adaptive node kinds (Node4, Node16,
// Node48, Node256) and path compression.
//
// The benchmark uses ART as an ordered index: a lookup finds the least
// stored key >= x by byte-wise traversal. The tree is bulk-loaded once
// from the sorted subset keys, with no insert path, into one
// exact-length array per node kind; a child is an int32 ref into one.
// A leaf is its key's data position, the combined pointer/value slot
// of Leis et al., so a leaf's key compare reads the data array.
// SizeBytes is the four arrays' bytes: what the index holds.
package art

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/core"
)

// A ref names a child. A leaf at data position p is ^p, which is
// negative; an inner node is its index in its kind's array, shifted
// left two bits over the kind.
const (
	kind4 = iota
	kind16
	kind48
	kind256
	leaf // NodeStep.Kind of a leaf's key compare, a read of the data keys
)

// none is an empty Node256 slot. As a leaf it would be data position
// MaxInt32, which Build never indexes.
const none int32 = math.MinInt32

// Every node starts with the key bytes above depth that every key
// below it shares (the rest are zero) and depth, the byte it branches
// on. Node4 and Node16 hold their n child bytes sorted.
type node4 struct {
	prefix   uint64
	depth, n uint8
	key      [4]byte
	child    [4]int32
}

type node16 struct {
	prefix   uint64
	depth, n uint8
	key      [16]byte
	child    [16]int32
}

type node48 struct {
	prefix uint64
	depth  uint8
	index  [256]uint8 // 0: no child; else the child is child[index[b]-1]
	child  [48]int32
}

type node256 struct {
	prefix uint64
	depth  uint8
	child  [256]int32 // none: no child
}

// Each node's size, and the offsets of its child slots and of the
// bytes its in-node compare reads: Node4's and Node16's child bytes,
// Node48's index, Node256's child slots.
var (
	nodeBytes = [4]int{int(unsafe.Sizeof(node4{})), int(unsafe.Sizeof(node16{})), int(unsafe.Sizeof(node48{})), int(unsafe.Sizeof(node256{}))}
	slot0     = [4]int{int(unsafe.Offsetof(node4{}.child)), int(unsafe.Offsetof(node16{}.child)), int(unsafe.Offsetof(node48{}.child)), int(unsafe.Offsetof(node256{}.child))}
	byte0     = [3]int{int(unsafe.Offsetof(node4{}.key)), int(unsafe.Offsetof(node16{}.key)), int(unsafe.Offsetof(node48{}.index))}
)

// The compares a descent makes, as NodeStep.Cmp names them: a node's
// prefix against x's (taken: equal), a child byte against x's (taken:
// it is x's own byte) and a leaf's key against x (taken: key >= x).
const (
	cmpPrefix = 1 + iota
	cmpByte
	cmpKey
)

// Index is an adaptive radix tree over every Stride-th data key.
type Index struct {
	keys   []core.Key // the data array: a leaf's key is keys[its position]
	root   int32
	n4     []node4
	n16    []node16
	n48    []node48
	n256   []node256
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

// Build implements core.Builder. The index keeps keys: leaves read them.
func (b Builder) Build(keys []core.Key) (core.Index, error) {
	n := len(keys)
	if n == 0 || n >= math.MaxInt32 {
		return nil, errors.New("art: needs 1 to 2^31-2 keys")
	}
	stride := max(b.Stride, 1)
	// ART stores unique keys; for duplicate data keys keep the first
	// (lower-bound) position. Sorted input makes duplicate subset keys
	// adjacent.
	var ps []int32
	for i := 0; i < n; i += stride {
		if i == 0 || keys[i] != keys[i-stride] {
			ps = append(ps, int32(i))
		}
	}
	idx := &Index{keys: keys, stride: stride, maxPos: ps[len(ps)-1]}
	idx.root = idx.build(ps)
	idx.n4, idx.n16, idx.n48, idx.n256 = slices.Clone(idx.n4), slices.Clone(idx.n16), slices.Clone(idx.n48), slices.Clone(idx.n256)
	return idx, nil
}

// build returns the ref of the subtree over the data positions ps,
// whose keys ascend. The node branches on the first byte where its
// least and greatest keys differ, and its kind is the smallest that
// holds its children, which go into their arrays before it.
func (idx *Index) build(ps []int32) int32 {
	if len(ps) == 1 {
		return ^ps[0]
	}
	lo := idx.keys[ps[0]]
	depth := bits.LeadingZeros64(lo^idx.keys[ps[len(ps)-1]]) / 8
	prefix, shift, d := lo&^(math.MaxUint64>>(8*depth)), 56-8*depth, uint8(depth)
	var key [256]byte
	var child [256]int32
	n := 0
	for start := 0; start < len(ps); n++ {
		key[n] = byte(idx.keys[ps[start]] >> shift)
		end := start + 1
		for end < len(ps) && byte(idx.keys[ps[end]]>>shift) == key[n] {
			end++
		}
		child[n], start = idx.build(ps[start:end]), end
	}
	switch {
	case n <= 4:
		nd := node4{prefix: prefix, depth: d, n: uint8(n)}
		copy(nd.key[:], key[:n])
		copy(nd.child[:], child[:n])
		idx.n4 = append(idx.n4, nd)
		return int32(len(idx.n4)-1)<<2 | kind4
	case n <= 16:
		nd := node16{prefix: prefix, depth: d, n: uint8(n)}
		copy(nd.key[:], key[:n])
		copy(nd.child[:], child[:n])
		idx.n16 = append(idx.n16, nd)
		return int32(len(idx.n16)-1)<<2 | kind16
	case n <= 48:
		nd := node48{prefix: prefix, depth: d}
		copy(nd.child[:], child[:n])
		for j, b := range key[:n] {
			nd.index[b] = uint8(j + 1)
		}
		idx.n48 = append(idx.n48, nd)
		return int32(len(idx.n48)-1)<<2 | kind48
	}
	nd := node256{prefix: prefix, depth: d}
	for b := range nd.child {
		nd.child[b] = none
	}
	for j, b := range key[:n] {
		nd.child[b] = child[j]
	}
	idx.n256 = append(idx.n256, nd)
	return int32(len(idx.n256)-1)<<2 | kind256
}

// ceiling returns the data position of the least key >= x below ref,
// whose keys share x's bytes above its depth; ok is false when every
// key below is smaller. A non-nil visit sees every read.
func (idx *Index) ceiling(ref int32, x core.Key, visit func(NodeStep)) (pos int32, ok bool) {
	if ref < 0 {
		pos = ^ref
		ok = idx.keys[pos] >= x
		if visit != nil {
			visit(NodeStep{Kind: leaf, Off: int(pos) * 8, Cmp: cmpKey, Taken: ok})
		}
		return pos, ok
	}
	prefix, depth := uint64(0), uint8(0)
	switch k, i := ref&3, ref>>2; k {
	case kind4:
		prefix, depth = idx.n4[i].prefix, idx.n4[i].depth
	case kind16:
		prefix, depth = idx.n16[i].prefix, idx.n16[i].depth
	case kind48:
		prefix, depth = idx.n48[i].prefix, idx.n48[i].depth
	default:
		prefix, depth = idx.n256[i].prefix, idx.n256[i].depth
	}
	xp := x &^ (math.MaxUint64 >> (8 * depth))
	if visit != nil {
		visit(NodeStep{Kind: int(ref & 3), Off: int(ref>>2) * nodeBytes[ref&3], Cmp: cmpPrefix, Taken: xp == prefix})
	}
	if xp != prefix {
		if xp < prefix { // every key below is greater
			return idx.min(ref, visit), true
		}
		return 0, false
	}
	b := int(x>>(56-8*depth)) & 0xFF
	child, at := idx.next(ref, b, visit)
	if at == b {
		if pos, ok := idx.ceiling(child, x, visit); ok {
			return pos, true
		}
		child, at = idx.next(ref, b+1, visit) // every key under x's byte is smaller
	}
	if at > 0xFF {
		return 0, false
	}
	return idx.min(child, visit), true
}

// next returns the child of inner node ref under the least byte >= b,
// and that byte, or 256 when there is none.
func (idx *Index) next(ref int32, b int, visit func(NodeStep)) (child int32, at int) {
	k, i, j := int(ref&3), int(ref>>2), 0
	switch k {
	case kind4:
		j, at = sorted(idx.n4[i].key[:idx.n4[i].n], b)
		child = idx.n4[i].child[j]
	case kind16:
		j, at = sorted(idx.n16[i].key[:idx.n16[i].n], b)
		child = idx.n16[i].child[j]
	case kind48:
		for at = b; at <= 0xFF && idx.n48[i].index[at] == 0; at++ {
		}
		if at <= 0xFF {
			j = int(idx.n48[i].index[at]) - 1
			child = idx.n48[i].child[j]
		}
	default:
		for at = b; at <= 0xFF && idx.n256[i].child[at] == none; at++ {
		}
		if at <= 0xFF {
			j, child = at, idx.n256[i].child[at]
		}
	}
	if visit != nil && at <= 0xFF {
		// The byte compare reads a Node4/16 child byte, a Node48 index
		// entry or a Node256 child slot; the first three then read the
		// child slot.
		node := i * nodeBytes[k]
		read := [4]int{node + byte0[0] + j, node + byte0[1] + j, node + byte0[2] + at, node + slot0[3] + 4*at}[k]
		visit(NodeStep{Kind: k, Off: read, Cmp: cmpByte, Taken: at == b})
		if k != kind256 {
			visit(NodeStep{Kind: k, Off: node + slot0[k] + 4*j})
		}
	}
	return child, at
}

// sorted returns the index and value of the least key byte >= b, or 256.
func sorted(key []byte, b int) (j, at int) {
	for j, k := range key {
		if int(k) >= b {
			return j, int(k)
		}
	}
	return 0, 256
}

// min returns the data position of the least key below ref.
func (idx *Index) min(ref int32, visit func(NodeStep)) int32 {
	for ref >= 0 {
		ref, _ = idx.next(ref, 0, visit)
	}
	return ^ref
}

// Lookup implements core.Index.
func (idx *Index) Lookup(key core.Key) core.Bound { return idx.Trace(key, nil) }

// Trace is Lookup's descent: a non-nil visit is called for every read
// of a node or of a leaf's key, backtracking and min-leaf descents
// included.
func (idx *Index) Trace(key core.Key, visit func(NodeStep)) core.Bound {
	n := len(idx.keys)
	pos, found := idx.ceiling(idx.root, key, visit)
	if !found {
		// Every indexed key is smaller: the lower bound lies after the
		// last subset position.
		return core.Bound{Lo: int(idx.maxPos) + 1, Hi: n}.Clamp(n)
	}
	return core.Bound{Lo: max(int(pos)-idx.stride+1, 0), Hi: int(pos) + 1}
}

// SizeBytes implements core.Index.
func (idx *Index) SizeBytes() int {
	a := idx.ArrayBytes()
	return a[0] + a[1] + a[2] + a[3]
}

// ArrayBytes is the bytes of the Node4, Node16, Node48 and Node256
// arrays, in that order.
func (idx *Index) ArrayBytes() [4]int {
	return [4]int{len(idx.n4) * nodeBytes[kind4], len(idx.n16) * nodeBytes[kind16], len(idx.n48) * nodeBytes[kind48], len(idx.n256) * nodeBytes[kind256]}
}

// Name implements core.Index.
func (idx *Index) Name() string { return "ART" }

// NodeStep is one read of a descent, as Trace reports it: byte Off of
// array Kind, the Node4, Node16, Node48 or Node256 array (0 to 3) or,
// for a leaf's key, the data keys (4). Cmp names the compare the read
// feeds (0 for none) and Taken is its outcome.
type NodeStep struct {
	Kind, Off, Cmp int
	Taken          bool
}
