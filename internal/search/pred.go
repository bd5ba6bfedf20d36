package search

import (
	"math/bits"

	"repro/internal/core"
)

// Pred returns the last slot of keys[lo:hi] whose key is <= x: the
// predecessor of x in a sorted window. When no slot qualifies it
// returns lo-1, clamped at 0, because every caller's slot 0 owns the
// keys below all others (PGM's and RS's first segment, the store's
// first shard). One step reduces the window to a power-of-two width,
// then a ladder of exact halvings advances lo by half whenever the
// probed key is <= x: Probes(hi-lo) comparisons in all.
//
// The comparisons stay branches on purpose. A lone descent's loads miss
// cache level after level, and branch speculation runs those misses
// ahead; a mask/CMOV form chains them serially (measured ~20 % slower
// per PGM lookup). Batches and routing use PredBranchless instead.
func Pred(keys []core.Key, x core.Key, lo, hi int) int {
	width := hi - lo
	if width > 0 {
		w := 1 << (bits.Len(uint(width)) - 1)
		if w != width && atMost(keys[lo+width-w], x) {
			lo += width - w
		}
		for ; w > 1; w >>= 1 {
			if atMost(keys[lo+w>>1-1], x) {
				lo += w >> 1
			}
		}
		if atMost(keys[lo], x) {
			lo++
		}
	}
	return max(lo-1, 0)
}

// PredBranchless is Pred with every comparison materialized by SETcc
// and folded in by mask arithmetic (lo += half & -c): the same probes,
// the same answer, no data-dependent branch. It serves searches whose
// neighbours are independent — a batch's keys, a router's requests —
// where out-of-order execution overlaps their loads and the mispredict
// flush is the hazard left to remove.
func PredBranchless(keys []core.Key, x core.Key, lo, hi int) int {
	width := hi - lo
	if width > 0 {
		w := 1 << (bits.Len(uint(width)) - 1)
		if w != width {
			lo += (width - w) & -b2i(atMost(keys[lo+width-w], x))
		}
		for ; w > 1; w >>= 1 {
			lo += w >> 1 & -b2i(atMost(keys[lo+w>>1-1], x))
		}
		lo += b2i(atMost(keys[lo], x))
	}
	return max(lo-1, 0)
}

// b2i is 1 for true and 0 for false, compiled to SETcc.
func b2i(b bool) int {
	c := 0
	if b {
		c = 1
	}
	return c
}

// Probes is how many keys Pred and PredBranchless compare in a window
// of width slots: none in an empty one, else one per halving, the last,
// and the reduction step unless width is a power of two.
func Probes(width int) int {
	return bits.Len(uint(width)) + min(width&(width-1), 1)
}
