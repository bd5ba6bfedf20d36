// Package pgm implements the piecewise geometric model index of
// Ferragina and Vinciguerra (Section 3.3 of the paper).
//
// Each level is an error-bounded piecewise linear regression: the data
// level approximates key -> position to within epsilon, and each level
// above approximates key -> segment number of the level below, built
// bottom-up until the top level is small enough to scan. Lookups
// descend the levels, using the epsilon guarantee to restrict the
// segment search at each step to a 2*(eps+1)+1 window.
//
// Segment construction uses a one-pass shrinking slope-corridor filter
// anchored at each segment's first point. The corridor guarantees the
// epsilon bound exactly; it can emit slightly more segments than the
// optimal convex-hull construction of the PGM paper (bounded by a
// small constant factor), which affects size but never correctness.
// See DESIGN.md.
package pgm

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"unsafe"

	"repro/internal/core"
)

// Segment is one piece of an error-bounded linear regression: it
// covers points with keys in [Key, nextSegment.Key) and predicts
// Pos + Slope*(x-Key) for the position of x in the level below.
type Segment struct {
	Key   core.Key // first key covered (exact integer for routing)
	Slope float64
	Pos   int32 // position of the first covered point in the level below
}

// SegmentSizeBytes is what one segment occupies in its level's array,
// MarginSizeBytes what a data-level segment's two verified margins do in
// theirs: the units of SizeBytes and of the simulator's regions.
const (
	SegmentSizeBytes = int(unsafe.Sizeof(Segment{}))
	MarginSizeBytes  = int(unsafe.Sizeof(Index{}.dataErrLo[0]) + unsafe.Sizeof(Index{}.dataErrHi[0]))
)

// Index is a built PGM index.
type Index struct {
	eps    int
	n      int
	levels [][]Segment // levels[0] indexes the data; levels[k] indexes levels[k-1]
	// Per-segment verified margins for the data level. The corridor
	// guarantees eps for the first occurrence of every present key;
	// these margins additionally cover absent keys, duplicate runs
	// (whose lower-bound rank jumps can exceed eps) and float
	// rounding. For unique-key datasets they stay within eps+2.
	dataErrLo, dataErrHi []int32
}

// Builder constructs PGM indexes with a fixed error bound.
type Builder struct {
	// Eps is the maximum prediction error of every level (the paper's
	// epsilon). Smaller epsilon means more segments (larger index) and
	// tighter search bounds.
	Eps int
}

// Name implements core.Builder.
func (b Builder) Name() string { return "PGM" }

// Build implements core.Builder.
func (b Builder) Build(keys []core.Key) (core.Index, error) {
	return New(keys, b.Eps)
}

// topLevelMax is the segment count at which level construction stops;
// the top level is binary searched directly.
const topLevelMax = 8

// New builds a PGM index over sorted keys with the given epsilon.
func New(keys []core.Key, eps int) (*Index, error) {
	if len(keys) == 0 {
		return nil, errors.New("pgm: empty key set")
	}
	if eps < 1 {
		eps = 1
	}
	idx := &Index{eps: eps, n: len(keys)}

	// Build the data level on (key, position) points, then recursively
	// index each level's first keys until small enough.
	level := fitSegments(keys, eps)
	idx.levels = append(idx.levels, level)
	idx.dataErrLo, idx.dataErrHi = computeDataMargins(keys, level, eps)
	for len(level) > topLevelMax {
		firstKeys := make([]core.Key, len(level))
		for i, s := range level {
			firstKeys[i] = s.Key
		}
		level = fitSegments(firstKeys, eps)
		idx.levels = append(idx.levels, level)
	}
	return idx, nil
}

// computeDataMargins derives, for every data-level segment, search
// margins that are valid for lower-bound queries of arbitrary keys.
// For any query x, let k be the largest distinct data key <= x: the
// lower bound of x is either rank(k) (when x == k) or nextRank(k)
// (when x lies in the gap above k, including above a duplicate run),
// and the routed segment's prediction for x lies between its
// predictions at k and at the next distinct key. Taking margins over
// those extremes at every distinct key covers all queries.
//
// The walk is in key order with the routed segment as a forward-only
// cursor, and the prediction at the next distinct key — computed as the
// top of the current key's gap — is carried over as that key's own
// prediction unless the cursor moves first: one evaluation per distinct
// key, plus one per segment boundary.
//
// The walk runs chunk-wise: a range of keys starts at its first distinct
// key, finds its cursor by binary search and keeps margins of its own
// for the segments it reaches, which merge by max.
func computeDataMargins(keys []core.Key, segs []Segment, eps int) (errLo, errHi []int32) {
	n, m := len(keys), len(segs)
	type run struct {
		seg0         int
		errLo, errHi []int32 // of segments seg0, seg0+1, ...
	}
	runs := core.Parallel(n, func(_, lo, hi int) run {
		lo, hi = distinctFrom(keys, lo), distinctFrom(keys, hi)
		if lo == hi {
			return run{} // inside a run of duplicates that began before
		}
		si := max(sort.Search(m, func(j int) bool { return segs[j].Key > keys[lo] })-1, 0)
		rn := run{seg0: si, errLo: []int32{int32(eps + 1)}, errHi: []int32{int32(eps + 1)}}
		pred := -1 // segs[si]'s prediction at keys[i]; negative: not evaluated yet
		for i := lo; i < hi; {
			k := keys[i]
			nr := i + 1 // lower-bound rank of any key in the gap above k
			for nr < n && keys[nr] == k {
				nr++
			}
			for si+1 < m && segs[si+1].Key <= k {
				si++
				pred = -1
				rn.errLo, rn.errHi = append(rn.errLo, int32(eps+1)), append(rn.errHi, int32(eps+1))
			}
			nextPos := n
			if si+1 < m {
				nextPos = int(segs[si+1].Pos)
			}
			if pred < 0 {
				pred = predict(segs[si], nextPos, k)
			}
			j := si - rn.seg0
			rn.errLo[j] = max(rn.errLo[j], int32(pred-i+1))
			rn.errHi[j] = max(rn.errHi[j], int32(nr-pred+1))
			if nr < n {
				// Gap queries route to this segment but can be predicted as
				// high as the (clamped) prediction at the next distinct key.
				pred = predict(segs[si], nextPos, keys[nr])
				rn.errLo[j] = max(rn.errLo[j], int32(pred-nr+1))
			}
			i = nr
		}
		return rn
	})
	errLo = make([]int32, m)
	errHi = make([]int32, m)
	for i := range errLo {
		errLo[i], errHi[i] = int32(eps+1), int32(eps+1)
	}
	for _, rn := range runs {
		for j := range rn.errLo {
			si := rn.seg0 + j
			errLo[si], errHi[si] = max(errLo[si], rn.errLo[j]), max(errHi[si], rn.errHi[j])
		}
	}
	return errLo, errHi
}

// distinctFrom returns the first position at or after i that holds the
// first occurrence of its key, or len(keys).
func distinctFrom(keys []core.Key, i int) int {
	for i > 0 && i < len(keys) && keys[i] == keys[i-1] {
		i++
	}
	return i
}

// fitSegments runs the one-pass corridor filter over (key, rank)
// points, emitting segments that predict positions within eps.
//
// Only the first occurrence of each distinct key is used as a
// constraint point (its rank is the key's lower bound), exactly as the
// reference PGM handles duplicates: predictions then approximate the
// lower-bound rank directly, and constraint x-values are strictly
// increasing so the corridor slopes are always well defined.
func fitSegments(keys []core.Key, eps int) []Segment {
	n := len(keys)
	segs := make([]Segment, 0, 16)
	feps := float64(eps)

	start := 0
	x0 := float64(keys[0])
	slopeLo, slopeHi := math.Inf(-1), math.Inf(1)
	emit := func() {
		// Any slope within the corridor satisfies all constraints;
		// take the midpoint, clamped non-negative (positions are
		// non-decreasing, so a valid non-negative slope exists).
		var slope float64
		switch {
		case math.IsInf(slopeHi, 1) && math.IsInf(slopeLo, -1):
			slope = 0 // single-point segment
		case math.IsInf(slopeHi, 1):
			slope = slopeLo
		case math.IsInf(slopeLo, -1):
			slope = slopeHi
		default:
			slope = (slopeLo + slopeHi) / 2
		}
		if slope < 0 {
			slope = 0 // slopeHi > 0 always holds: ranks increase with keys
		}
		segs = append(segs, Segment{Key: keys[start], Slope: slope, Pos: int32(start)})
	}

	for i := start + 1; i < n; i++ {
		if keys[i] == keys[i-1] {
			continue // duplicate: constrained by its first occurrence
		}
		x := float64(keys[i])
		gap := x - x0
		if gap <= 0 {
			// Distinct uint64 keys can collapse to the same float64;
			// their rank error from the anchor must stay within eps.
			if float64(i-start) <= feps {
				continue
			}
			emit()
			start, x0 = i, x
			slopeLo, slopeHi = math.Inf(-1), math.Inf(1)
			continue
		}
		dy := float64(i - start)
		lo := (dy - feps) / gap
		hi := (dy + feps) / gap
		newLo, newHi := slopeLo, slopeHi
		if lo > newLo {
			newLo = lo
		}
		if hi < newHi {
			newHi = hi
		}
		if newLo > newHi {
			emit()
			start, x0 = i, x
			slopeLo, slopeHi = math.Inf(-1), math.Inf(1)
			continue
		}
		slopeLo, slopeHi = newLo, newHi
	}
	emit()
	return segs
}

// predict evaluates segment s for key x, clamped into [s.Pos, nextPos],
// where nextPos is the first position of the following segment (or the
// size of the level below for the last segment). Clamping against the
// neighbour keeps extrapolation near segment boundaries within the
// epsilon argument (as in the reference implementation).
func predict(s Segment, nextPos int, x core.Key) int {
	p := float64(s.Pos) + s.Slope*(float64(x)-float64(s.Key))
	// Clamp in float space: converting an out-of-range float64 to int
	// is not defined in Go and wraps to the wrong extreme on amd64.
	if p <= float64(s.Pos) {
		return int(s.Pos)
	}
	if p >= float64(nextPos) {
		return nextPos
	}
	return int(math.Round(p))
}

// segSearch returns the predecessor segment for x in segs[lo:hi]: one
// below the first segment whose Key exceeds x (clamped at 0). The
// search is branch-free: one conditional step reduces the window to a
// power-of-two width, then a ladder of exact halvings advances lo by
// half whenever the probed segment key is <= x. The comparisons stay
// branches on purpose: a lone descent's loads miss cache level after
// level, and branch speculation runs those misses ahead — a mask/CMOV
// form would chain them serially (measured ~20% slower per lookup).
// The batch descent uses segSearchBL instead, where independent
// neighbours provide the overlap and mispredict flushes are the
// bottleneck.
func segSearch(segs []Segment, x core.Key, lo, hi int) int {
	width := hi - lo
	if width > 0 {
		w := 1 << (bits.Len(uint(width)) - 1)
		if w != width {
			if segs[lo+width-w].Key <= x {
				lo += width - w
			}
		}
		for w > 1 {
			half := w >> 1
			if segs[lo+half-1].Key <= x {
				lo += half
			}
			w = half
		}
		if segs[lo].Key <= x {
			lo++
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// segSearchBL is segSearch with every comparison materialized by SETcc
// and folded in with mask arithmetic (lo += half & -c) — no
// data-dependent branches. Used by the level-synchronous batch descent:
// its iterations are independent across keys, so out-of-order execution
// overlaps their loads and the only per-iteration hazard left to remove
// is the mispredict flush. (The scalar descent deliberately keeps the
// branchy form; see segSearch.)
func segSearchBL(segs []Segment, x core.Key, lo, hi int) int {
	width := hi - lo
	if width > 0 {
		w := 1 << (bits.Len(uint(width)) - 1)
		if w != width {
			c := 0
			if segs[lo+width-w].Key <= x {
				c = 1
			}
			lo += (width - w) & -c
		}
		for w > 1 {
			half := w >> 1
			c := 0
			if segs[lo+half-1].Key <= x {
				c = 1
			}
			lo += half & -c
			w = half
		}
		c := 0
		if segs[lo].Key <= x {
			c = 1
		}
		lo += c
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// Lookup implements core.Index.
func (idx *Index) Lookup(key core.Key) core.Bound { return idx.Trace(key, nil) }

// PathStep is one level of a descent as Trace reports it.
type PathStep struct {
	Level int // 0 = data level
	Seg   int // segment evaluated at this level
	// WinLo/WinHi is the segment-search window in the level below
	// (both zero at the data level).
	WinLo, WinHi int
}

// Trace is Lookup's descent. A non-nil visit is called once per level,
// top-down, with the segment evaluated there — after the window below
// is known and before it is searched — which is the path the
// performance-counter simulation replays.
func (idx *Index) Trace(key core.Key, visit func(PathStep)) core.Bound {
	top := idx.levels[len(idx.levels)-1]
	j := segSearch(top, key, 0, len(top))

	// Descend internal levels: each level's segment predicts the
	// segment number in the level below to within eps; search only
	// that window.
	for li := len(idx.levels) - 1; li >= 1; li-- {
		below := idx.levels[li-1]
		lvl := idx.levels[li]
		seg := lvl[j]
		nextPos := len(below)
		if j+1 < len(lvl) {
			nextPos = int(lvl[j+1].Pos)
		}
		pred := predict(seg, nextPos, key)
		lo := pred - idx.eps - 1
		hi := pred + idx.eps + 2
		if lo < 0 {
			lo = 0
		}
		if hi > len(below) {
			hi = len(below)
		}
		if visit != nil {
			visit(PathStep{Level: li, Seg: j, WinLo: lo, WinHi: hi})
		}
		j = segSearch(below, key, lo, hi)
	}

	// Data level: predict the position and widen by the segment's
	// verified margins.
	lvl := idx.levels[0]
	seg := lvl[j]
	nextPos := idx.n
	if j+1 < len(lvl) {
		nextPos = int(lvl[j+1].Pos)
	}
	if visit != nil {
		visit(PathStep{Level: 0, Seg: j})
	}
	pos := predict(seg, nextPos, key)
	return core.BoundAround(pos, int(idx.dataErrLo[j]), int(idx.dataErrHi[j]), idx.n)
}

// batchChunk is the LookupBatch processing granularity: the per-chunk
// segment-cursor scratch lives on the stack and a chunk's keys stay in
// L1 across the level passes.
const batchChunk = 64

// LookupBatch implements core.BatchIndex with a level-synchronous
// descent: instead of walking each key through every level (a chain of
// dependent segment-array misses per key), the whole chunk advances
// one level per pass. Within a pass the segment searches of different
// keys are independent, so their (random) segment loads overlap in the
// memory system — the same pipelining trick as the table layer's probe
// rounds, applied to the index's internal search. Every pass uses
// exactly the scalar Lookup arithmetic, so batched bounds are
// bit-identical to Lookup's.
func (idx *Index) LookupBatch(keys []core.Key, out []core.Bound) {
	top := idx.levels[len(idx.levels)-1]
	var seg [batchChunk]int32
	for off := 0; off < len(keys); off += batchChunk {
		end := off + batchChunk
		if end > len(keys) {
			end = len(keys)
		}
		chunk := keys[off:end]
		outc := out[off:end]

		for i, x := range chunk {
			seg[i] = int32(segSearchBL(top, x, 0, len(top)))
		}
		for li := len(idx.levels) - 1; li >= 1; li-- {
			below := idx.levels[li-1]
			lvl := idx.levels[li]
			for i, x := range chunk {
				j := int(seg[i])
				s := lvl[j]
				nextPos := len(below)
				if j+1 < len(lvl) {
					nextPos = int(lvl[j+1].Pos)
				}
				pred := predict(s, nextPos, x)
				lo := pred - idx.eps - 1
				hi := pred + idx.eps + 2
				if lo < 0 {
					lo = 0
				}
				if hi > len(below) {
					hi = len(below)
				}
				seg[i] = int32(segSearchBL(below, x, lo, hi))
			}
		}
		lvl := idx.levels[0]
		for i, x := range chunk {
			j := int(seg[i])
			s := lvl[j]
			nextPos := idx.n
			if j+1 < len(lvl) {
				nextPos = int(lvl[j+1].Pos)
			}
			pos := predict(s, nextPos, x)
			outc[i] = core.BoundAround(pos, int(idx.dataErrLo[j]), int(idx.dataErrHi[j]), idx.n)
		}
	}
}

// SizeBytes implements core.Index.
func (idx *Index) SizeBytes() int {
	total := 0
	for _, l := range idx.levels {
		total += len(l) * SegmentSizeBytes
	}
	total += len(idx.dataErrLo) * MarginSizeBytes
	return total
}

// Name implements core.Index.
func (idx *Index) Name() string { return "PGM" }

// NumSegments reports the total segment count across levels.
func (idx *Index) NumSegments() int {
	total := 0
	for _, l := range idx.levels {
		total += len(l)
	}
	return total
}

// String implements fmt.Stringer with a diagnostic summary.
func (idx *Index) String() string {
	return fmt.Sprintf("pgm[eps=%d, levels=%d, segments=%d]", idx.eps, len(idx.levels), idx.NumSegments())
}

// AvgLog2Error returns the mean log2 search-bound width over the data,
// weighted by segment coverage — the paper's log2-error metric.
func (idx *Index) AvgLog2Error() float64 {
	lvl := idx.levels[0]
	total, count := 0.0, 0.0
	for j := range lvl {
		next := idx.n
		if j+1 < len(lvl) {
			next = int(lvl[j+1].Pos)
		}
		occ := float64(next - int(lvl[j].Pos))
		if occ <= 0 {
			continue
		}
		w := float64(idx.dataErrLo[j] + idx.dataErrHi[j] + 1)
		total += occ * math.Log2(w+1)
		count += occ
	}
	if count == 0 {
		return 0
	}
	return total / count
}

// LevelSizes returns the segment count of each level, data level first.
func (idx *Index) LevelSizes() []int {
	out := make([]int, len(idx.levels))
	for i, l := range idx.levels {
		out[i] = len(l)
	}
	return out
}
