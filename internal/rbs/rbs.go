// Package rbs implements radix binary search (Kipf et al., SOSD): a
// lookup table over r-bit key prefixes that maps each prefix to the
// range of data positions holding keys with that prefix. It is the
// paper's naive-but-strong baseline: a search bound costs one bit
// shift and one array lookup.
package rbs

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/core"
)

// Builder builds RBS tables with a fixed prefix width.
type Builder struct {
	// RadixBits is the number of prefix bits (table size 2^RadixBits+1).
	RadixBits int
}

// Name implements core.Builder.
func (b Builder) Name() string { return "RBS" }

// Build implements core.Builder.
func (b Builder) Build(keys []core.Key) (core.Index, error) {
	return newIndex(keys, b.RadixBits)
}

// Index is a built radix binary search table.
type Index struct {
	radixBits int
	n         int
	minKey    core.Key
	shift     uint
	table     []int32 // table[p] = first data position with prefix >= p
}

// newIndex builds an RBS table over sorted keys.
func newIndex(keys []core.Key, radixBits int) (*Index, error) {
	n := len(keys)
	if n == 0 {
		return nil, errors.New("rbs: empty key set")
	}
	if radixBits < 1 {
		radixBits = 1
	}
	if radixBits > 28 {
		radixBits = 28
	}
	idx := &Index{radixBits: radixBits, n: n, minKey: keys[0]}
	span := keys[n-1] - keys[0]
	if spanBits := bits.Len64(span); spanBits > radixBits {
		idx.shift = uint(spanBits - radixBits)
	}
	size := 1<<radixBits + 1
	idx.table = make([]int32, size)
	di := 0
	for p := 0; p < size; p++ {
		for di < n && idx.prefix(keys[di]) < uint64(p) {
			di++
		}
		idx.table[p] = int32(di)
	}
	return idx, nil
}

func (idx *Index) prefix(x core.Key) uint64 {
	if x <= idx.minKey {
		return 0
	}
	p := (x - idx.minKey) >> idx.shift
	max := uint64(1)<<idx.radixBits - 1
	if p > max {
		p = max
	}
	return p
}

// Lookup implements core.Index.
func (idx *Index) Lookup(key core.Key) core.Bound { return idx.bucketBound(idx.prefix(key)) }

// Trace is Lookup with a Tracer, which sees the two table entries of
// the bucket probed: the path the performance-counter simulation
// replays. Lookup shares bucketBound rather than calling Trace: at a
// few nanoseconds per lookup, the extra call alone cost RBS a third of
// its time.
func (idx *Index) Trace(key core.Key, t core.Tracer) core.Bound {
	p := idx.prefix(key)
	if t != nil {
		t.Work(3) // the prefix: a subtract, a shift and a clamp
		t.Read(0, int(p), 2)
	}
	return idx.bucketBound(p)
}

// bucketBound is a lookup's table work. The lower bound of a key with
// prefix p lies within the run of keys sharing that prefix (inclusive
// of the position just past the run, for keys greater than every key
// in the run).
func (idx *Index) bucketBound(p uint64) core.Bound {
	lo := int(idx.table[p])
	hi := int(idx.table[p+1]) + 1
	if hi > idx.n {
		hi = idx.n
	}
	if lo > hi {
		lo = hi
	}
	return core.Bound{Lo: lo, Hi: hi}
}

// Arrays describes the index: the table.
func (idx *Index) Arrays() []core.Array { return []core.Array{core.ArrayOf("table", idx.table)} }

// SizeBytes implements core.Index.
func (idx *Index) SizeBytes() int { return core.SizeOf(idx.Arrays()...) }

// Name implements core.Index.
func (idx *Index) Name() string { return "RBS" }

// String implements fmt.Stringer.
func (idx *Index) String() string { return fmt.Sprintf("rbs[r=%d]", idx.radixBits) }

// BinarySearchBuilder builds the zero-size pure binary search baseline
// (BS in the paper): the index is the trivial full bound.
type BinarySearchBuilder struct{}

// Name implements core.Builder.
func (BinarySearchBuilder) Name() string { return "BS" }

// Build implements core.Builder.
func (BinarySearchBuilder) Build(keys []core.Key) (core.Index, error) {
	if len(keys) == 0 {
		return nil, errors.New("bs: empty key set")
	}
	return binarySearch{n: len(keys)}, nil
}

type binarySearch struct{ n int }

func (b binarySearch) Lookup(core.Key) core.Bound { return core.Bound{Lo: 0, Hi: b.n} }
func (b binarySearch) SizeBytes() int             { return 0 }
func (b binarySearch) Name() string               { return "BS" }
