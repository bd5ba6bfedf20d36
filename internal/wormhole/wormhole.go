// Package wormhole implements a Wormhole-style ordered index (Wu et
// al., EuroSys'19; Figure 8 of the paper): sorted leaves of bounded
// size located through a hash-accelerated anchor-prefix search.
//
// Wormhole's central idea is replacing the O(log n) anchor search of a
// B+tree with an O(log keylen) search: all prefixes of leaf anchor
// keys live in a hash table, and a binary search over the *prefix
// length* finds the longest prefix of the query present in that table,
// which pins the target leaf to the anchors sharing the prefix. Keys
// here are fixed 8-byte big-endian strings, so at most four hash
// probes resolve any lookup.
package wormhole

import (
	"encoding/binary"
	"errors"

	"repro/internal/core"
)

const keyLen = 8

// leafSize is the number of subset keys per leaf (Wormhole's default
// leaf capacity class).
const leafSize = 128

// span is the contiguous range of leaves whose anchors share a prefix.
type span struct {
	lo, hi int32 // inclusive leaf index range
}

// index is a built wormhole index over a key subset.
type index struct {
	n       int
	stride  int
	subset  []core.Key // every stride-th key
	anchors []core.Key // first subset key of each leaf
	meta    map[string]span
}

// Builder builds wormhole indexes.
type Builder struct {
	// Stride inserts every Stride-th key. Clamped to at least 1.
	Stride int
}

// Name implements core.Builder.
func (Builder) Name() string { return "Wormhole" }

// Build implements core.Builder.
func (b Builder) Build(keys []core.Key) (core.Index, error) {
	n := len(keys)
	if n == 0 {
		return nil, errors.New("wormhole: empty key set")
	}
	stride := b.Stride
	if stride < 1 {
		stride = 1
	}
	idx := &index{n: n, stride: stride, meta: make(map[string]span)}
	for i := 0; i < n; i += stride {
		idx.subset = append(idx.subset, keys[i])
	}
	nLeaves := (len(idx.subset) + leafSize - 1) / leafSize
	idx.anchors = make([]core.Key, nLeaves)
	for l := 0; l < nLeaves; l++ {
		idx.anchors[l] = idx.subset[l*leafSize]
	}
	// Register every anchor prefix with the leaf range it spans.
	var kb [keyLen]byte
	for l, a := range idx.anchors {
		binary.BigEndian.PutUint64(kb[:], a)
		for plen := 0; plen <= keyLen; plen++ {
			p := string(kb[:plen])
			if s, ok := idx.meta[p]; ok {
				if int32(l) < s.lo {
					s.lo = int32(l)
				}
				if int32(l) > s.hi {
					s.hi = int32(l)
				}
				idx.meta[p] = s
			} else {
				idx.meta[p] = span{int32(l), int32(l)}
			}
		}
	}
	return idx, nil
}

// leafFor returns the index of the last anchor <= x (the leaf whose
// key range contains x), or -1 when x precedes every anchor.
func (idx *index) leafFor(x core.Key) int {
	var kb [keyLen]byte
	binary.BigEndian.PutUint64(kb[:], x)
	// Binary search the longest anchor prefix of x present in the meta
	// hash. Prefix presence is monotone in length.
	lo, hi := 0, keyLen // known-present, first-unknown
	var best span
	best = idx.meta[""]
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s, ok := idx.meta[string(kb[:mid])]; ok {
			best = s
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	// The target leaf is within [best.lo-1, best.hi]: anchors sharing
	// the longest prefix, plus the one just before them.
	alo := int(best.lo) - 1
	if alo < 0 {
		alo = 0
	}
	ahi := int(best.hi)
	// Binary search for the last anchor <= x.
	for alo < ahi {
		mid := (alo + ahi + 1) / 2
		if idx.anchors[mid] <= x {
			alo = mid
		} else {
			ahi = mid - 1
		}
	}
	if idx.anchors[alo] > x {
		return -1
	}
	return alo
}

// Lookup implements core.Index.
func (idx *index) Lookup(key core.Key) core.Bound {
	leaf := idx.leafFor(key)
	if leaf < 0 {
		return core.Bound{Lo: 0, Hi: 1}.Clamp(idx.n)
	}
	// Binary search inside the leaf for the first subset key >= x.
	start := leaf * leafSize
	end := start + leafSize
	if end > len(idx.subset) {
		end = len(idx.subset)
	}
	lo, hi := start, end
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if idx.subset[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is the subset ceiling index (possibly the start of the next
	// leaf, or len(subset) when x exceeds every subset key). Duplicate
	// data keys can duplicate anchors across leaves, in which case the
	// global first-occurrence ceiling sits in an earlier leaf: walk
	// back to it (bounded by the duplicate run length; benchmark
	// datasets have unique keys).
	for lo > 0 && idx.subset[lo-1] >= key {
		lo--
	}
	m := len(idx.subset)
	switch {
	case lo == 0:
		return core.Bound{Lo: 0, Hi: 1}
	case lo == m:
		return core.Bound{Lo: (m-1)*idx.stride + 1, Hi: idx.n}.Clamp(idx.n)
	default:
		b := core.Bound{Lo: (lo-1)*idx.stride + 1, Hi: lo*idx.stride + 1}
		return b.Clamp(idx.n)
	}
}

// SizeBytes implements core.Index: subset keys, anchors, and the meta
// hash (per entry: string header+bytes, span, and map overhead).
func (idx *index) SizeBytes() int {
	metaEntry := 16 + 8 + 8 + 16 // string header + avg prefix + span + bucket overhead
	return len(idx.subset)*8 + len(idx.anchors)*8 + len(idx.meta)*metaEntry
}

// Name implements core.Index.
func (idx *index) Name() string { return "Wormhole" }
