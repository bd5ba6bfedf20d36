package search

import "math/bits"

// Unsigned constrains the key types the ladder searches: core.Key and
// the uint32 keys of the key-size experiment.
type Unsigned interface{ ~uint32 | ~uint64 }

// Rank returns lo plus the number of slots of keys[lo:hi] whose key is
// <= x: in a sorted window, one past the predecessor of x. It is the
// one halving ladder every predecessor and in-node search here runs
// on. The rank lies in [lo, lo+n], n = hi-lo; each step compares the
// slot n/2 up, moves lo there when its key is <= x, and keeps the
// ceil(n/2) slots that still hold the rank, until one comparison
// settles the last slot: Probes(hi-lo) comparisons in all, at the
// slots Replay names.
//
// The comparisons stay branches on purpose. A lone descent's loads miss
// cache level after level, and branch speculation runs those misses
// ahead; a mask/CMOV form chains them serially (measured ~20 % slower
// per PGM lookup). Batches, routing and the B+tree's small nodes use
// the mask form, RankBranchless, instead.
func Rank[K Unsigned](keys []K, x K, lo, hi int) int {
	n := hi - lo
	for ; n > 1; n -= n >> 1 {
		if atMost(keys[lo+n>>1], x) {
			lo += n >> 1
		}
	}
	if n > 0 && atMost(keys[lo], x) {
		lo++
	}
	return lo
}

// RankBranchless is Rank with every comparison materialized by SETcc
// and folded in by mask arithmetic (lo += half & -c): the same probes,
// the same answer, no data-dependent branch. It serves searches whose
// neighbours are independent — a batch's keys, a router's requests —
// where out-of-order execution overlaps their loads and the mispredict
// flush is the hazard left to remove, and the B+tree's in-node search,
// whose nodes are a few cache lines. A lower bound is a rank: the first
// slot whose key is >= x > 0 is the rank of x-1, and for x == 0 it is
// lo, with no comparison. The explicit mask form matters: a
// plain `if keys[m] <= x { lo += half }` stays a branch, because the
// compiler will not put a load's latency on a loop-carried dependency
// via CMOV.
func RankBranchless[K Unsigned](keys []K, x K, lo, hi int) int {
	n := hi - lo
	for ; n > 1; n -= n >> 1 {
		lo += n >> 1 & -b2i(atMost(keys[lo+n>>1], x))
	}
	if n > 0 {
		lo += b2i(atMost(keys[lo], x))
	}
	return lo
}

// b2i is 1 for true and 0 for false, compiled to SETcc.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Pred returns the last slot of keys[lo:hi] whose key is <= x: the
// predecessor of x in a sorted window. When no slot qualifies it
// returns lo-1, clamped at 0, because every caller's slot 0 owns the
// keys below all others (PGM's and RS's first segment, the store's
// first shard). A descent that must hand on the rank the clamp hides
// calls Rank.
func Pred[K Unsigned](keys []K, x K, lo, hi int) int {
	return max(Rank(keys, x, lo, hi)-1, 0)
}

// PredBranchless is Pred on the mask form of the ladder.
func PredBranchless[K Unsigned](keys []K, x K, lo, hi int) int {
	return max(RankBranchless(keys, x, lo, hi)-1, 0)
}

// Replay calls visit, in order, with every slot the ladder compares in
// a search of keys[lo:hi] that returned rank, and the comparison's
// outcome. The window is sorted, so the keys <= x are exactly the slots
// below the rank: the probes depend on lo, hi and the rank alone, and
// the performance simulation charges them without the keys.
func Replay(lo, hi, rank int, visit func(slot int, atMost bool)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	for ; n > 1; n -= n >> 1 {
		if s := lo + n>>1; s < rank {
			visit(s, true)
			lo = s
		} else {
			visit(s, false)
		}
	}
	visit(lo, lo < rank)
}

// Probes is how many keys the ladder compares in a window of width
// slots: none in an empty one, else one per halving, ceil(log2(width))
// of them, and the last.
func Probes(width int) int {
	return bits.Len(uint(width)) + min(width&(width-1), 1)
}
