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
// SizeBytes is the four arrays' bytes (Arrays): what the index holds.
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
	leaf // the array a leaf's key compare reads: the data keys, past the four node arrays
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

// The compares a descent makes, as step names them: a node's
// prefix against x's (taken: equal), a child byte against x's (taken:
// it is x's own byte) and a leaf's key against x (taken: key >= x).
const (
	cmpPrefix = 1 + iota
	cmpByte
	cmpKey
)

// index is an adaptive radix tree over every Stride-th data key.
type index struct {
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
	idx := &index{keys: keys, stride: stride, maxPos: ps[len(ps)-1]}
	idx.root = idx.build(ps)
	idx.n4, idx.n16, idx.n48, idx.n256 = slices.Clone(idx.n4), slices.Clone(idx.n16), slices.Clone(idx.n48), slices.Clone(idx.n256)
	return idx, nil
}

// build returns the ref of the subtree over the data positions ps,
// whose keys ascend. The node branches on the first byte where its
// least and greatest keys differ, and its kind is the smallest that
// holds its children, which go into their arrays before it.
func (idx *index) build(ps []int32) int32 {
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
// key below is smaller. A non-nil t sees every read.
func (idx *index) ceiling(ref int32, x core.Key, t core.Tracer) (pos int32, ok bool) {
	if ref < 0 {
		pos = ^ref
		ok = idx.keys[pos] >= x
		if t != nil {
			step(t, leaf, int(pos), cmpKey, ok)
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
	if t != nil {
		step(t, int(ref&3), int(ref>>2)*nodeBytes[ref&3], cmpPrefix, xp == prefix)
	}
	if xp != prefix {
		if xp < prefix { // every key below is greater
			return idx.min(ref, t), true
		}
		return 0, false
	}
	b := int(x>>(56-8*depth)) & 0xFF
	child, at := idx.next(ref, b, t)
	if at == b {
		if pos, ok := idx.ceiling(child, x, t); ok {
			return pos, true
		}
		child, at = idx.next(ref, b+1, t) // every key under x's byte is smaller
	}
	if at > 0xFF {
		return 0, false
	}
	return idx.min(child, t), true
}

// next returns the child of inner node ref under the least byte >= b,
// and that byte, or 256 when there is none.
func (idx *index) next(ref int32, b int, t core.Tracer) (child int32, at int) {
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
	if t != nil && at <= 0xFF {
		// The byte compare reads a Node4/16 child byte, a Node48 index
		// entry or a Node256 child slot; the first three then read the
		// child slot.
		node := i * nodeBytes[k]
		read := [4]int{node + byte0[0] + j, node + byte0[1] + j, node + byte0[2] + at, node + slot0[3] + 4*at}[k]
		step(t, k, read, cmpByte, at == b)
		if k != kind256 {
			step(t, k, node+slot0[k]+4*j, 0, false)
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
func (idx *index) min(ref int32, t core.Tracer) int32 {
	for ref >= 0 {
		ref, _ = idx.next(ref, 0, t)
	}
	return ^ref
}

// Lookup implements core.Index.
func (idx *index) Lookup(key core.Key) core.Bound { return idx.Trace(key, nil) }

// Trace is Lookup's descent: a non-nil t sees every read of a node or
// of a leaf's key (see step), backtracking and min-leaf descents
// included.
func (idx *index) Trace(key core.Key, t core.Tracer) core.Bound {
	n := len(idx.keys)
	pos, found := idx.ceiling(idx.root, key, t)
	if !found {
		// Every indexed key is smaller: the lower bound lies after the
		// last subset position.
		return core.Bound{Lo: int(idx.maxPos) + 1, Hi: n}.Clamp(n)
	}
	return core.Bound{Lo: max(int(pos)-idx.stride+1, 0), Hi: int(pos) + 1}
}

// step reports one read of a descent, byte off of node array a or, for
// a leaf, data key off, and the compare it feeds (cmp, 0 for none) at
// one branch site per kind of compare. No read straddles a line: the
// arrays start on one, and each node's header and every slot lie
// within one.
func step(t core.Tracer, a, off, cmp int, taken bool) {
	t.Read(a, off, 1)
	if cmp != 0 {
		t.Compare(0xA0+uint32(cmp), taken)
	}
	t.Work(3) // the read's address
}

// Arrays describes the index: the Node4, Node16, Node48 and Node256
// arrays, in bytes, since a descent reads single bytes and slots inside
// a node.
func (idx *index) Arrays() []core.Array {
	return []core.Array{
		{Name: "node4", Elem: 1, Len: len(idx.n4) * nodeBytes[kind4]},
		{Name: "node16", Elem: 1, Len: len(idx.n16) * nodeBytes[kind16]},
		{Name: "node48", Elem: 1, Len: len(idx.n48) * nodeBytes[kind48]},
		{Name: "node256", Elem: 1, Len: len(idx.n256) * nodeBytes[kind256]},
	}
}

// SizeBytes implements core.Index.
func (idx *index) SizeBytes() int { return core.SizeOf(idx.Arrays()...) }

// Name implements core.Index.
func (idx *index) Name() string { return "ART" }
