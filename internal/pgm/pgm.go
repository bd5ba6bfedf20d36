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
// A segment is its first key, a float32 slope rounded from inside its
// corridor (see emit) and its start position, 16 bytes; a data segment
// adds two one-byte margin codes, 18 bytes. See DESIGN.md.
package pgm

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/search"
)

// level is one level of the hierarchy as three parallel arrays, one
// slot per segment: segment i covers the points with keys in
// [keys[i], keys[i+1]) and predicts pos[i] + slopes[i]*(x-keys[i]) for
// the position of x in the level below.
type level struct {
	keys   []core.Key // first key covered (exact integer for routing)
	slopes []float32  // rounded from inside the corridor by emit
	pos    []int32    // position of the first covered point in the level below
}

// Bytes a segment's key, slope and pos take, in memory and on the wire
// (pinned by TestSegmentLayout).
const segmentBytes = 16

// Index is a built PGM index.
type Index struct {
	eps    int
	n      int
	levels []level // levels[0] indexes the data; levels[k] indexes levels[k-1]
	// Per-segment verified margins for the data level, side by side:
	// segment j's lower margin at 2j, its upper at 2j+1, each the code
	// of its excess over eps+1 (exact below 32). The corridor
	// guarantees eps for the first occurrence of every present key;
	// these margins additionally cover absent keys, duplicate runs
	// (whose lower-bound rank jumps can exceed eps) and float
	// rounding. For unique-key datasets they stay within eps+2.
	margins []core.Margin
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
	l := fitSegments(keys, eps)
	idx.levels = append(idx.levels, l)
	idx.margins = computeDataMargins(keys, &l, eps)
	for len(l.keys) > topLevelMax {
		l = fitSegments(l.keys, eps)
		idx.levels = append(idx.levels, l)
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
// for the segments it reaches, which merge by max. The result holds the
// codes of segment j's lower margin at 2j and its upper at 2j+1.
func computeDataMargins(keys []core.Key, l *level, eps int) []core.Margin {
	n, m := len(keys), len(l.keys)
	type run struct {
		seg0    int
		margins []int32 // of segments seg0, seg0+1, ..., side by side
	}
	runs := core.Parallel(n, func(_, lo, hi int) run {
		lo, hi = distinctFrom(keys, lo), distinctFrom(keys, hi)
		if lo == hi {
			return run{} // inside a run of duplicates that began before
		}
		si := search.Pred(l.keys, keys[lo], 0, m)
		rn := run{seg0: si, margins: []int32{int32(eps + 1), int32(eps + 1)}}
		pred := -1 // segment si's prediction at keys[i]; negative: not evaluated yet
		for i := lo; i < hi; {
			k := keys[i]
			nr := i + 1 // lower-bound rank of any key in the gap above k
			for nr < n && keys[nr] == k {
				nr++
			}
			for si+1 < m && l.keys[si+1] <= k {
				si++
				pred = -1
				rn.margins = append(rn.margins, int32(eps+1), int32(eps+1))
			}
			nextPos := l.end(si, n)
			if pred < 0 {
				pred = l.predict(si, nextPos, k)
			}
			j := 2 * (si - rn.seg0)
			rn.margins[j] = max(rn.margins[j], int32(pred-i+1))
			rn.margins[j+1] = max(rn.margins[j+1], int32(nr-pred+1))
			if nr < n {
				// Gap queries route to this segment but can be predicted as
				// high as the (clamped) prediction at the next distinct key.
				pred = l.predict(si, nextPos, keys[nr])
				rn.margins[j] = max(rn.margins[j], int32(pred-nr+1))
			}
			i = nr
		}
		return rn
	})
	margins := make([]core.Margin, 2*m) // code 0: eps+1
	for _, rn := range runs {
		for j, v := range rn.margins {
			// Codes order as their margins do, so max merges either.
			margins[2*rn.seg0+j] = max(margins[2*rn.seg0+j], core.ToMargin(int(v)-eps-1))
		}
	}
	return margins
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
func fitSegments(keys []core.Key, eps int) level {
	n := len(keys)
	var l level
	feps := float64(eps)

	start := 0
	x0 := float64(keys[0])
	slopeLo, slopeHi := math.Inf(-1), math.Inf(1)
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
			l.emit(keys[start], start, slopeLo, slopeHi)
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
			l.emit(keys[start], start, slopeLo, slopeHi)
			start, x0 = i, x
			slopeLo, slopeHi = math.Inf(-1), math.Inf(1)
			continue
		}
		slopeLo, slopeHi = newLo, newHi
	}
	l.emit(keys[start], start, slopeLo, slopeHi)
	// Appending left up to a quarter of each array spare; keep none.
	l.keys, l.slopes, l.pos = slices.Clone(l.keys), slices.Clone(l.slopes), slices.Clone(l.pos)
	return l
}

// emit appends the segment that starts at key, position start, and
// whose slope corridor is [slopeLo, slopeHi]. Any slope within the
// corridor satisfies all constraints; take the midpoint, clamped
// non-negative (positions are non-decreasing, so a valid non-negative
// slope exists), and store the nearest float32. That float32 lies in
// the corridor whenever any float32 does, being no farther from the
// midpoint. Only a corridor narrower than one float32 step holds none
// (145 of 216,615 segments over the ladder on the four datasets at 2M
// keys; lo == hi == 1/9 on amzn at eps=4 among them): there the slope
// misses it by at most half a step, 2⁻²⁴ of itself, which moves a
// prediction by at most 2⁻²⁴ of the segment's span, under one position
// below a span of 2²⁴. The data level's margins are measured through
// the stored slope, so cover it; above, the windows of eps+1 below and
// eps+2 above, one past the corridor's eps each side, absorb it.
func (l *level) emit(key core.Key, start int, slopeLo, slopeHi float64) {
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
	l.keys = append(l.keys, key)
	l.slopes = append(l.slopes, float32(slope))
	l.pos = append(l.pos, int32(start))
}

// end is the first position below covered by the segment after j, or
// below — the size of the level below — for the last segment.
func (l *level) end(j, below int) int {
	if j+1 < len(l.pos) {
		return int(l.pos[j+1])
	}
	return below
}

// predict evaluates segment j for key x, clamped into [pos[j], nextPos],
// where nextPos is l.end(j, ...). Clamping against the neighbour keeps
// extrapolation near segment boundaries within the epsilon argument (as
// in the reference implementation).
func (l *level) predict(j, nextPos int, x core.Key) int {
	pos := float64(l.pos[j])
	p := pos + float64(l.slopes[j])*(float64(x)-float64(l.keys[j]))
	// Clamp in float space: converting an out-of-range float64 to int
	// is not defined in Go and wraps to the wrong extreme on amd64.
	if p <= pos {
		return int(l.pos[j])
	}
	if p >= float64(nextPos) {
		return nextPos
	}
	return int(math.Round(p))
}

// window is the slice of the level below that segment j of level li
// sends x to: its prediction widened by eps+1 below and eps+2 above,
// clamped into the level.
func (idx *Index) window(li, j int, x core.Key) (lo, hi int) {
	below := len(idx.levels[li-1].keys)
	pred := idx.levels[li].predict(j, idx.levels[li].end(j, below), x)
	return max(pred-idx.eps-1, 0), min(pred+idx.eps+2, below)
}

// Lookup implements core.Index.
func (idx *Index) Lookup(key core.Key) core.Bound { return idx.Trace(key, nil) }

// Trace is Lookup's descent. A non-nil t sees every level's step,
// top-down (see trace), which is the path the performance-counter
// simulation replays.
func (idx *Index) Trace(key core.Key, t core.Tracer) core.Bound {
	// The top level is searched whole; each level's segment then
	// predicts the segment number in the level below to within eps, and
	// only that window is searched.
	li := len(idx.levels) - 1
	lo, hi := 0, len(idx.levels[li].keys)
	for {
		r := search.Rank(idx.levels[li].keys, key, lo, hi)
		if t != nil {
			idx.trace(t, li, lo, hi, r)
		}
		j := max(r-1, 0)
		if li == 0 {
			// Data level: predict the position and widen by the
			// segment's verified margins.
			data := &idx.levels[0]
			lo, hi := idx.margin(j)
			return core.BoundAround(data.predict(j, data.end(j, idx.n), key), lo, hi, idx.n)
		}
		lo, hi = idx.window(li, j, key)
		li--
	}
}

// trace reports level li's step of a descent, in arrays as Arrays
// orders them: the search of the level's keys over the window [lo, hi)
// (the whole level at the top), which returned r, then the segment
// below the rank — its key, its slope and the two positions its
// prediction is clamped between — and, at the data level, its margins.
func (idx *Index) trace(t core.Tracer, li, lo, hi, r int) {
	j, keys := max(r-1, 0), 3*li
	t.Search(keys, lo, hi, r, 0x77)
	t.Read(keys, j, 1)
	t.Read(keys+1, j, 1)
	t.Read(keys+2, j, min(2, len(idx.levels[li].pos)-j))
	t.Work(8) // the segment's prediction and its clamp
	if li == 0 {
		t.Read(3*len(idx.levels), 2*j, 2)
	}
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
	top := idx.levels[len(idx.levels)-1].keys
	data := &idx.levels[0]
	var seg [batchChunk]int32
	for off := 0; off < len(keys); off += batchChunk {
		chunk := keys[off:min(off+batchChunk, len(keys))]
		outc := out[off : off+len(chunk)]
		for i, x := range chunk {
			seg[i] = int32(search.PredBranchless(top, x, 0, len(top)))
		}
		for li := len(idx.levels) - 1; li >= 1; li-- {
			below := idx.levels[li-1].keys
			for i, x := range chunk {
				lo, hi := idx.window(li, int(seg[i]), x)
				seg[i] = int32(search.PredBranchless(below, x, lo, hi))
			}
		}
		for i, x := range chunk {
			j := int(seg[i])
			lo, hi := idx.margin(j)
			outc[i] = core.BoundAround(data.predict(j, data.end(j, idx.n), x), lo, hi, idx.n)
		}
	}
}

// margin returns data segment j's lower and upper margins.
func (idx *Index) margin(j int) (lo, hi int) {
	return idx.eps + 1 + idx.margins[2*j].Value(), idx.eps + 1 + idx.margins[2*j+1].Value()
}

// Arrays describes the index: each level's keys, slopes and pos, data
// level first, then the data level's margins.
func (idx *Index) Arrays() []core.Array {
	out := make([]core.Array, 0, 3*len(idx.levels)+1)
	for _, l := range idx.levels {
		out = append(out, core.ArrayOf("keys", l.keys), core.ArrayOf("slopes", l.slopes), core.ArrayOf("pos", l.pos))
	}
	return append(out, core.ArrayOf("margins", idx.margins))
}

// SizeBytes implements core.Index.
func (idx *Index) SizeBytes() int { return core.SizeOf(idx.Arrays()...) }

// Name implements core.Index.
func (idx *Index) Name() string { return "PGM" }

// NumSegments reports the total segment count across levels.
func (idx *Index) NumSegments() int {
	total := 0
	for _, l := range idx.levels {
		total += len(l.keys)
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
	data := &idx.levels[0]
	total, count := 0.0, 0.0
	for j, p := range data.pos {
		occ := float64(data.end(j, idx.n) - int(p))
		if occ <= 0 {
			continue
		}
		lo, hi := idx.margin(j)
		total += occ * math.Log2(float64(lo+hi+1)+1)
		count += occ
	}
	if count == 0 {
		return 0
	}
	return total / count
}
