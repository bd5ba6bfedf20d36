// Branchless last-mile search and prefetch-pipelined batch probes.
//
// The per-lookup budget at production scale is dominated by the last
// mile (Section 4.2.3 of the paper): a handful of data-array loads plus
// the branch mispredicts of a classic binary search. The functions in
// this file attack both terms. BranchlessSearch replaces the
// unpredictable compare-and-branch with the mask form of pred.go's
// halving ladder, so the only pipeline hazard left is the load
// itself. linearSearch (in search.go) uses a sentinel-free
// compare-accumulate block scan with the same property. NarrowBatch
// then attacks the loads: a batch of independent searches is advanced
// one probe step per round, so the random data-array loads of
// different keys are all in flight at once instead of each search
// serializing behind its own log2(width) dependent-miss chain — the
// software-prefetch-style pipelining of the table layer's GetBatch,
// which calls it for its probe rounds.
package search

import "repro/internal/core"

// BranchlessSearch locates the lower bound of key within the bound: the
// rank of key-1 on the mask form of the halving ladder (RankBranchless
// in pred.go), whose comparisons are folded into the position by mask
// arithmetic, so the hard-to-predict comparisons of a random workload
// cost no mispredict flushes.
func BranchlessSearch(keys []core.Key, key core.Key, b core.Bound) int {
	if key == 0 {
		return b.Lo
	}
	return RankBranchless(keys, key-1, b.Lo, b.Hi)
}

// narrowStop is the bound width at which the pipelined rounds of
// NarrowBatch stop: at 8 keys the whole bound spans at most two cache
// lines, every remaining probe hits, and independent-probe scheduling
// has nothing left to overlap.
const narrowStop = 8

// NarrowBatch runs pipelined binary probe rounds over a batch of
// searches: each round advances every bound wider than narrowStop by
// one probe step, until none is. The probes of a round touch independent
// cache lines, so the memory system overlaps their misses — the batch
// resolves in ~log2(maxWidth) rounds of parallel loads instead of
// len(qs) serial chains. Bounds are narrowed in place in the closed
// form Lo <= lb <= Hi (a probe that moves Hi can land it exactly on
// the lower bound; every Fn in this package resolves that form
// correctly, exactly as the intermediate states of a classic binary
// search do).
func NarrowBatch(keys []core.Key, qs []core.Key, bs []core.Bound) {
	bs = bs[:len(qs)] // one bounds check here, none in the rounds
	for {
		active := false
		for i := range bs {
			lo, hi := bs[i].Lo, bs[i].Hi
			if hi-lo <= narrowStop {
				continue
			}
			active = true
			mid := int(uint(lo+hi) >> 1)
			if keys[mid] < qs[i] {
				bs[i].Lo = mid + 1
			} else {
				bs[i].Hi = mid
			}
		}
		if !active {
			return
		}
	}
}
