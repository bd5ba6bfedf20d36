// Package search implements the "last mile" search functions of the
// benchmark (Section 4.2.3 of the paper): given a valid search bound
// produced by an index structure, locate the exact lower-bound position
// of the lookup key using binary, linear, or interpolation search.
//
// Every consumer of an index — the measurement harness, the table
// layer, the sharded store — finishes lookups through a pluggable Fn,
// so the paper's index-vs-search-function cross product (Figure 11)
// falls out of composition. Binary search is the robust default;
// linear wins on very tight bounds (no branch mispredicts), and
// interpolation wins when keys are near-uniform within the bound.
package search

import "repro/internal/core"

// Fn is a last-mile search function: it returns the lower bound of key
// within keys[b.Lo:b.Hi], as an absolute position into keys. The bound
// must be valid for key (see core.ValidBound); behaviour is undefined
// otherwise.
type Fn func(keys []core.Key, key core.Key, b core.Bound) int

// Kind enumerates the last-mile search strategies evaluated in the paper.
type Kind int

const (
	Binary Kind = iota
	Linear
	Interpolation
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Binary:
		return "binary"
	case Linear:
		return "linear"
	case Interpolation:
		return "interpolation"
	default:
		return "unknown"
	}
}

// ByKind returns the search function for k.
func ByKind(k Kind) Fn {
	switch k {
	case Binary:
		return BinarySearch
	case Linear:
		return linearSearch
	case Interpolation:
		return interpolationSearch
	default:
		return BinarySearch
	}
}

// BinarySearch locates the lower bound of key within the bound using
// classic branch-light binary search.
func BinarySearch(keys []core.Key, key core.Key, b core.Bound) int {
	lo, hi := b.Lo, b.Hi
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// linearBlock is the linearSearch block width: one block is eight keys
// (a cache line), compared without branches; the scan branches only
// between blocks.
const linearBlock = 8

// linearSearch scans forward from the start of the bound. It is fastest
// only for very narrow bounds (the paper finds binary search wins above
// a small threshold). The scan is a sentinel-free compare-accumulate:
// each block of eight keys is compared unconditionally and the match
// count (the keys still below the lookup key) added to the cursor, so
// the only branch is the once-per-block exit test — the classic
// per-element `keys[i] < key` exit branch, mispredicted exactly at the
// answer, is gone.
func linearSearch(keys []core.Key, key core.Key, b core.Bound) int {
	i := b.Lo
	for i+linearBlock <= b.Hi {
		blk := keys[i : i+linearBlock : i+linearBlock]
		c := 0
		for _, k := range blk {
			if k < key { // compiles to SETcc + add: no data-dependent branch
				c++
			}
		}
		i += c
		if c < linearBlock {
			return i
		}
	}
	// Residual tail (< one block): compare-accumulate without the exit
	// test; sorted keys make the count the lower-bound offset.
	c := 0
	for _, k := range keys[i:b.Hi] {
		if k < key {
			c++
		}
	}
	return i + c
}

// interpolationSearch repeatedly estimates the key's position assuming
// keys are uniformly distributed between the bound's endpoints, then
// narrows the bound around the probe. It falls back to binary search
// when the range stops shrinking quickly, guaranteeing O(log n) worst
// case while keeping the O(log log n) behaviour on smooth data.
func interpolationSearch(keys []core.Key, key core.Key, b core.Bound) int {
	lo, hi := b.Lo, b.Hi
	// Invariant: the lower bound of key lies in [lo, hi], with lb == hi
	// only possible when every key in the range is less than key.
	const maxProbes = 16
	for probes := 0; probes < maxProbes && hi-lo > 8; probes++ {
		first, last := keys[lo], keys[hi-1]
		if key <= first {
			return lo
		}
		if key > last {
			return hi
		}
		// first < key <= last here, so first < last and interpolation
		// is well-defined. float64 avoids overflow in the product.
		frac := float64(key-first) / float64(last-first)
		pos := lo + int(frac*float64(hi-1-lo))
		if pos < lo {
			pos = lo
		}
		if pos >= hi {
			pos = hi - 1
		}
		if keys[pos] < key {
			lo = pos + 1
		} else {
			hi = pos + 1
		}
	}
	return BinarySearch(keys, key, core.Bound{Lo: lo, Hi: hi})
}

// BinarySteps reports the number of binary-search iterations needed to
// resolve a bound of the given width: ceil(log2(width)) for width >= 2,
// the ladder's Probes less the last comparison, which a classic loop
// folds into its exit. It is the paper's "log2 error" unit for a single
// bound.
func BinarySteps(width int) int {
	return max(Probes(width)-1, 0)
}
