// Package core defines the search-bound formulation of index structures
// used throughout the benchmark, following Section 2 of "Benchmarking
// Learned Indexes" (Marcus et al., VLDB 2020).
//
// An index structure over a zero-indexed sorted array D maps an integer
// lookup key x to a search bound [Lo, Hi) that is guaranteed to contain
// the lower bound of x: the position of the smallest key in D that is
// greater than or equal to x. A last-mile search (package search) then
// locates the exact position within the bound.
package core

import (
	"fmt"
	"slices"
)

// Key is the canonical key type of the benchmark: an unsigned 64-bit
// integer, as in the SOSD datasets. 32-bit experiments use Key32.
type Key = uint64

// Key32 is the key type for the 32-bit experiments (Section 4.2.2).
type Key32 = uint32

// Bound is a half-open search range [Lo, Hi) of positions into the
// underlying sorted array. A valid bound for lookup key x satisfies
// Lo <= LowerBound(x) < Hi (with Hi clamped to len(D) by convention,
// and LowerBound(x) == len(D) represented as Lo == Hi == len(D)).
type Bound struct {
	Lo, Hi int
}

// Width reports the number of positions covered by the bound.
func (b Bound) Width() int { return b.Hi - b.Lo }

// String implements fmt.Stringer.
func (b Bound) String() string { return fmt.Sprintf("[%d,%d)", b.Lo, b.Hi) }

// Clamp restricts the bound to [0, n], preserving Lo <= Hi.
func (b Bound) Clamp(n int) Bound {
	if b.Lo < 0 {
		b.Lo = 0
	}
	if b.Hi > n {
		b.Hi = n
	}
	if b.Lo > b.Hi {
		b.Lo = b.Hi
	}
	return b
}

// Index is an approximate index structure over a sorted array of keys:
// it maps any possible lookup key to a search bound containing the
// key's lower bound. Implementations never return invalid bounds.
type Index interface {
	// Lookup returns a search bound for key. The bound is half-open,
	// clamped to [0, n] where n is the size of the indexed array, and
	// contains the lower bound of key.
	Lookup(key Key) Bound

	// SizeBytes reports the in-memory footprint of the index structure
	// itself, excluding the underlying data array, in bytes. This is
	// the size axis of the paper's Pareto plots.
	SizeBytes() int

	// Name identifies the structure family (e.g. "RMI", "PGM", "BTree").
	Name() string
}

// batchIndex is an optional extension of Index for a structure whose
// batch descent beats a loop of its own Lookup; PGM's level-synchronous
// descent is the one such. Elsewhere the out-of-order core already
// overlaps independent lookups' misses, so LookupBatch loops Lookup.
type batchIndex interface {
	Index

	// LookupBatch fills out[i] with a valid search bound for keys[i].
	// len(out) must be >= len(keys). Each bound satisfies the same
	// contract as Lookup.
	LookupBatch(keys []Key, out []Bound)
}

// LookupBatch computes search bounds for a batch of keys, using the
// index's batch descent when it implements batchIndex and a loop of
// Lookup otherwise.
func LookupBatch(idx Index, keys []Key, out []Bound) {
	if bi, ok := idx.(batchIndex); ok {
		bi.LookupBatch(keys, out)
		return
	}
	for i, x := range keys {
		out[i] = idx.Lookup(x)
	}
}

// Builder constructs an index over a sorted key array. Builders carry
// the structure's tuning configuration (error bounds, branching factors,
// subset-insertion stride, ...), so one Builder value corresponds to one
// point on the paper's size/performance tradeoff curves.
type Builder interface {
	// Build constructs the index. keys must be sorted ascending;
	// duplicates are allowed. The returned index must be valid for
	// every possible lookup key (not only keys present in the array).
	Build(keys []Key) (Index, error)

	// Name identifies the structure family this builder constructs.
	Name() string
}

// LowerBound returns the position of the smallest key in keys that is
// greater than or equal to x, or len(keys) if no such key exists. This
// matches the C++ std::lower_bound semantics adopted by the paper and
// is the reference oracle against which all indexes are validated.
func LowerBound(keys []Key, x Key) int {
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

// ValidBound reports whether bound b is a correct search bound for
// lookup key x over keys: it must be clamped to [0, len(keys)] and
// contain the lower bound of x. When the lower bound is len(keys)
// (x greater than every key), any bound with Hi == len(keys) is
// accepted, matching the paper's special case LB(max D) = |D|.
func ValidBound(keys []Key, x Key, b Bound) bool {
	n := len(keys)
	if b.Lo < 0 || b.Hi > n || b.Lo > b.Hi {
		return false
	}
	lb := LowerBound(keys, x)
	if lb == n {
		return b.Hi == n
	}
	return b.Lo <= lb && lb < b.Hi
}

// IsSorted reports whether keys is sorted in ascending order
// (duplicates allowed). Each range of the check also compares its first
// key with the one before it.
func IsSorted(keys []Key) bool {
	sorted := Parallel(len(keys), func(_, lo, hi int) bool {
		for i := max(lo, 1); i < hi; i++ {
			if keys[i] < keys[i-1] {
				return false
			}
		}
		return true
	})
	return !slices.Contains(sorted, false)
}

// FullBound returns the trivial always-valid bound [0, n).
func FullBound(n int) Bound { return Bound{0, n} }

// BoundAround builds a clamped bound centred on a predicted position
// pos with error margins errLo below and errHi above (both inclusive
// margins, so the bound is [pos-errLo, pos+errHi+1) before clamping).
// It is the common path by which learned structures turn a CDF estimate
// plus error bound into a search bound.
func BoundAround(pos, errLo, errHi, n int) Bound {
	// Clamping the prediction into [0, n] never invalidates the error
	// contract: the true lower bound lies in [0, n], so moving pos
	// toward that range only brings it closer.
	if pos < 0 {
		pos = 0
	}
	if pos > n {
		pos = n
	}
	lo := pos - errLo
	hi := pos + errHi + 1
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo > hi {
		lo = hi
	}
	return Bound{lo, hi}
}

// Margin is a search-bound margin in one byte. Codes 0–31 are the
// margins 0–31; from 32 on, code 32+8k+f is (8+f)<<(k+2), a leading bit
// and three more. ToMargin rounds any v < 2³¹ up, by at most v/8 (exact
// below 32), so a bound never narrows; the codes it returns order as
// their values do.
type Margin uint8

// ToMargin returns the code of the smallest margin >= v (0 for v < 0).
func ToMargin(v int) Margin {
	if v < 32 {
		return Margin(max(v, 0))
	}
	c, _ := slices.BinarySearch(marginValues[32:], v)
	return Margin(32 + c)
}

// Value decodes m with one load and no branch, which would mispredict
// where wide and narrow margins mix.
func (m Margin) Value() int { return marginValues[m] }

// marginValues is every code's margin.
var marginValues = func() (v [256]int) {
	for c := range v {
		if v[c] = c; c >= 32 {
			v[c] = (8 + c&7) << (c>>3 - 2)
		}
	}
	return v
}()
