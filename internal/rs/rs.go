// Package rs implements the RadixSpline index of Kipf et al.
// (Section 3.2 of the paper): a one-pass greedy linear spline over the
// CDF plus a radix table indexing r-bit prefixes of the spline points.
// The table is two levels: a 16-bit entry a block, a byte a bucket.
//
// Lookups extract the key's r-bit prefix, use the radix table to narrow
// the spline-point search, binary search the narrowed range for the
// spline segment containing the key, then linearly interpolate between
// the two surrounding spline points to estimate the position. The
// spline fitting guarantees a user-defined error bound.
package rs

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/search"
)

// Config holds the two RadixSpline hyperparameters; the paper notes RS
// is easy to tune precisely because these are the only knobs.
type Config struct {
	// SplineErr is the maximum spline interpolation error in positions.
	SplineErr int
	// RadixBits is the most key-prefix bits the radix table indexes
	// (2^bits + 1 offsets): New keeps the fewest that cost the keys no
	// more point-search probes than RadixBits would.
	RadixBits int
}

// String implements fmt.Stringer.
func (c Config) String() string { return fmt.Sprintf("rs[eps=%d,r=%d]", c.SplineErr, c.RadixBits) }

// Builder builds RadixSpline indexes with a fixed configuration.
type Builder struct {
	Config Config
}

// Name implements core.Builder.
func (b Builder) Name() string { return "RS" }

// Build implements core.Builder.
func (b Builder) Build(keys []core.Key) (core.Index, error) {
	return New(keys, b.Config)
}

// Index is a built RadixSpline.
type Index struct {
	cfg    Config
	n      int
	minKey core.Key
	shift  uint
	// Radix entry p in [0, 2^r] is the first spline point whose prefix
	// is >= p, shifted right by radixShift (0 below 65,536 points; above,
	// segmentFor's window only widens) to fit 16 bits. Entry p is
	// base[p>>blockBits] + fine[p&(len(fine)-1)] (see setRadix).
	base       []uint16
	fine       []uint8
	blockBits  uint
	radixShift uint
	lastBucket uint64 // 2^r - 1, where prefix clamps
	// The spline points, one distinct (key, lower-bound rank) pair of
	// the data each: the spline is the polyline through consecutive
	// points. Split so that the point search scans keys alone.
	keys []core.Key
	pos  []int32
	// Verified global search margins (spline error plus absent-key and
	// duplicate-run slack; see computeMargins).
	errLo, errHi int
}

// New builds a RadixSpline over sorted keys.
func New(keys []core.Key, cfg Config) (*Index, error) {
	n := len(keys)
	if n == 0 {
		return nil, errors.New("rs: empty key set")
	}
	if cfg.SplineErr < 1 {
		cfg.SplineErr = 1
	}
	idx := &Index{cfg: cfg, n: n, minKey: keys[0]}
	idx.keys, idx.pos = fitSpline(keys, cfg.SplineErr)
	idx.radixShift = radixShiftFor(len(idx.keys))

	// Radix table over the key range: prefix(x) = (x-minKey)>>shift,
	// at the fewest bits that cost the keys no more point probes than
	// RadixBits do. Bits past the span split no bucket; below, dropping
	// a bit only merges buckets, so windows only widen and a key's
	// probes only grow: the first bit that saves a probe ends the scan.
	spanBits := bits.Len64(keys[n-1] - keys[0])
	r := max(min(cfg.RadixBits, spanBits, 28), 1)
	for r > 1 && !idx.bitSavesProbe(keys, uint(spanBits-r)) {
		r--
	}
	idx.cfg.RadixBits, idx.shift, idx.lastBucket = r, uint(max(spanBits-r, 0)), 1<<r-1
	idx.setRadix()
	idx.errLo, idx.errHi = computeMargins(keys, idx)
	return idx, nil
}

// bitSavesProbe reports whether some key takes fewer search.Rank
// probes through a radix table at shift sh than at sh+1, where bucket
// q merges buckets 2q and 2q+1, without building either table. Every
// point is a key, so the points below a bucket are those of the
// buckets already walked.
func (idx *Index) bitSavesProbe(keys []core.Key, sh uint) bool {
	probes := func(a, b int) int { // over the points a to b, stored as a>>s and b>>s
		lo, hi := idx.window(a>>idx.radixShift, b>>idx.radixShift)
		return search.Probes(hi - lo)
	}
	a := 0
	for i := 0; i < len(keys); {
		q := (keys[i] - idx.minKey) >> (sh + 1)
		m := bucketEnd(idx.keys, a, idx.minKey, sh, 2*q)
		b := bucketEnd(idx.keys, m, idx.minKey, sh, 2*q+1)
		merged := probes(a, b)
		j := bucketEnd(keys, i, idx.minKey, sh, 2*q)
		if j > i && merged > probes(a, m) {
			return true
		}
		i, j = j, bucketEnd(keys, j, idx.minKey, sh, 2*q+1)
		if j > i && merged > probes(m, b) {
			return true
		}
		i, a = j, b
	}
	return false
}

// bucketEnd returns the first index at or after i of s whose key lies
// above bucket p at shift sh, galloping so a run costs its logarithm.
func bucketEnd(s []core.Key, i int, minKey core.Key, sh uint, p uint64) int {
	step := 1
	for i+step <= len(s) && (s[i+step-1]-minKey)>>sh <= p {
		i += step
		step *= 2
	}
	hi := min(i+step-1, len(s))
	return i + sort.Search(hi-i, func(k int) bool { return (s[i+k]-minKey)>>sh > p })
}

// exactRadix calls emit with every entry of the exact radix table, in
// order: entry p is the first spline point whose prefix is >= p.
func (idx *Index) exactRadix(emit func(p int, v uint32)) {
	pi := 0
	for p := 0; p <= 1<<idx.cfg.RadixBits; p++ {
		for pi < len(idx.keys) && idx.prefix(idx.keys[pi]) < uint64(p) {
			pi++
		}
		emit(p, uint32(pi))
	}
}

// radixShiftFor is the smallest entry shift that brings a point count
// within 16 bits: points>>s ≤ 65535 exactly when points>>16 < 2^s.
func radixShiftFor(points int) uint { return uint(bits.Len(uint(points) >> 16)) }

// setRadix stores the exact radix table at radixShift in blocks of 2^k
// entries, k the largest at which each lies within a byte of its block's
// first: base holds the firsts, fine each entry's offset. fine is 2^r
// bytes; entry 2^r, a block of its own, reads fine[0], which is 0. Where
// no k >= 1 fits, base is the whole table and fine the one 0 all read.
func (idx *Index) setRadix() {
	r := idx.cfg.RadixBits
	t := make([]uint16, 1<<r+1)
	idx.exactRadix(func(p int, v uint32) { t[p] = uint16(v >> idx.radixShift) })
	fits := func(k int) bool { // every block of 2^k entries rises at most 255
		for first := 0; first < len(t); first += 1 << k {
			if t[min(first+1<<k, len(t))-1]-t[first] > math.MaxUint8 {
				return false
			}
		}
		return true
	}
	k := r
	for k > 0 && !fits(k) {
		k--
	}
	idx.base, idx.fine, idx.blockBits = t, []uint8{0}, uint(k)
	if k > 0 {
		idx.base, idx.fine = make([]uint16, 1<<(r-k)+1), make([]uint8, 1<<r)
		for b := range idx.base {
			idx.base[b] = t[b<<k]
		}
		for p := range idx.fine {
			idx.fine[p] = uint8(t[p] - idx.base[p>>k])
		}
	}
}

// entries returns radix entries p and p+1, bucket p's bounds. Reading
// the fine bytes first keeps p+1 off the stack on amd64; the &63 here,
// in prefix and in window spares each shift its overflow check.
func (idx *Index) entries(p uint64) (lo, hi int) {
	k, m := idx.blockBits&63, uint64(len(idx.fine)-1)
	fp, fq := idx.fine[p&m], idx.fine[(p+1)&m]
	return int(idx.base[p>>k]) + int(fp), int(idx.base[(p+1)>>k]) + int(fq)
}

// prefix extracts the radix-table bucket of a key, clamped to the
// table range.
func (idx *Index) prefix(x core.Key) uint64 {
	if x <= idx.minKey {
		return 0
	}
	return min((x-idx.minKey)>>(idx.shift&63), idx.lastBucket)
}

// fitSpline runs the one-pass greedy spline corridor over the distinct
// (key, lower-bound rank) points. Every distinct data point is within
// eps of the resulting polyline.
//
// The corridor invariant: any line through the current base with slope
// in [slopeLo, slopeHi] passes within eps of every point accepted so
// far. A candidate point is accepted iff the chord base→candidate lies
// inside the corridor (so the eventual spline segment, which IS that
// chord, honours every accepted point); the corridor then narrows with
// the candidate's own eps window.
func fitSpline(keys []core.Key, eps int) (ptKeys []core.Key, ptPos []int32) {
	n := len(keys)
	feps := float64(eps)
	ptKeys, ptPos = []core.Key{keys[0]}, []int32{0}
	baseX, baseY := float64(keys[0]), 0.0
	slopeLo, slopeHi := math.Inf(-1), math.Inf(1)
	prevKey, prevPos := keys[0], int32(0)
	havePrev := false

	rebase := func(k core.Key, pos int32) {
		ptKeys, ptPos = append(ptKeys, k), append(ptPos, pos)
		baseX, baseY = float64(k), float64(pos)
		slopeLo, slopeHi = math.Inf(-1), math.Inf(1)
	}

	for i := 1; i < n; i++ {
		if keys[i] == keys[i-1] {
			continue // duplicates are represented by their first occurrence
		}
		x, y := float64(keys[i]), float64(i)
		gap := x - baseX
		if gap <= 0 {
			// Distinct uint64 collapsing to one float64: absorb while
			// the vertical error stays within eps, else cut at the
			// current point itself.
			if y-baseY <= feps {
				prevKey, prevPos, havePrev = keys[i], int32(i), true
				continue
			}
			rebase(keys[i], int32(i))
			prevKey, prevPos, havePrev = keys[i], int32(i), true
			continue
		}
		chord := (y - baseY) / gap
		if chord < slopeLo || chord > slopeHi {
			// The chord would violate an earlier point: emit the
			// previous point as a spline point and restart from it.
			if havePrev && prevKey != ptKeys[len(ptKeys)-1] {
				rebase(prevKey, prevPos)
				gap = x - baseX
				if gap <= 0 {
					prevKey, prevPos, havePrev = keys[i], int32(i), true
					continue
				}
			} else {
				rebase(keys[i], int32(i))
				prevKey, prevPos, havePrev = keys[i], int32(i), true
				continue
			}
		}
		// Narrow the corridor with the candidate's eps window.
		if lo := (y - feps - baseY) / gap; lo > slopeLo {
			slopeLo = lo
		}
		if hi := (y + feps - baseY) / gap; hi < slopeHi {
			slopeHi = hi
		}
		prevKey, prevPos, havePrev = keys[i], int32(i), true
	}
	if havePrev && ptKeys[len(ptKeys)-1] != prevKey {
		ptKeys, ptPos = append(ptKeys, prevKey), append(ptPos, prevPos)
	}
	// Appending left up to a quarter of each array spare; keep none.
	return slices.Clone(ptKeys), slices.Clone(ptPos)
}

// interpolate evaluates the spline at x: the polyline through points
// seg and seg+1. The result is clamped into the segment's rank range.
func (idx *Index) interpolate(seg int, x core.Key) int {
	k0, p0 := idx.keys[seg], idx.pos[seg]
	if seg+1 >= len(idx.keys) || x <= k0 {
		return int(p0)
	}
	k1, p1 := idx.keys[seg+1], idx.pos[seg+1]
	if x >= k1 {
		return int(p1)
	}
	frac := float64(x-k0) / float64(k1-k0)
	p := float64(p0) + frac*float64(p1-p0)
	return int(math.Round(p))
}

// segmentFor locates the spline segment containing x: the rightmost
// point with key <= x, restricted to the radix-table window: the point
// below the rank search.Rank returns there, clamped at 0. A non-nil t
// sees the lookup's reads.
func (idx *Index) segmentFor(x core.Key, t core.Tracer) int {
	p := idx.prefix(x)
	lo, hi := idx.window(idx.entries(p))
	r := search.Rank(idx.keys, x, lo, hi)
	if t != nil {
		idx.trace(t, p, lo, hi, r)
	}
	return max(r-1, 0)
}

// trace reports a lookup of bucket p, in arrays as Arrays orders them:
// the radix probe loads two adjacent entries from each of base and
// fine, the point search runs over the window [lo, hi) and returned r,
// and the interpolation reads the keys and positions of the point
// below the rank and the next.
func (idx *Index) trace(t core.Tracer, p uint64, lo, hi, r int) {
	fine := int(p & uint64(len(idx.fine)-1))
	t.Work(9) // each entry's shift, mask and add
	t.Read(0, int(p>>(idx.blockBits&63)), 2)
	t.Read(1, fine, min(2, len(idx.fine)-fine))
	t.Search(2, lo, hi, r, 0x33)
	seg := max(r-1, 0)
	pts := min(2, len(idx.keys)-seg)
	t.Read(2, seg, pts)
	t.Read(3, seg, pts)
	t.Work(8) // the interpolation between the two points
}

// window is the range of points searched for a bucket whose stored
// table entries are ra and rb.
func (idx *Index) window(ra, rb int) (lo, hi int) {
	s := idx.radixShift & 63
	lo, hi = ra<<s, rb<<s+(1<<s-1)
	// The entries bound points with prefix exactly p; the containing
	// segment can start one point earlier.
	if lo > 0 {
		lo--
	}
	if hi > len(idx.keys) {
		hi = len(idx.keys)
	}
	return lo, hi
}

// Lookup implements core.Index.
func (idx *Index) Lookup(key core.Key) core.Bound { return idx.Trace(key, nil) }

// Trace is Lookup's descent: a non-nil t sees its reads (see trace),
// which is the path the performance-counter simulation replays.
func (idx *Index) Trace(key core.Key, t core.Tracer) core.Bound {
	seg := idx.segmentFor(key, t)
	pos := idx.interpolate(seg, key)
	return core.BoundAround(pos, idx.errLo, idx.errHi, idx.n)
}

// computeMargins verifies the spline against every distinct key and
// the gaps between them, returning global search margins valid for
// arbitrary lower-bound queries (see the analogous reasoning in
// package pgm).
//
// It is one in-order walk. Keys ascend, so the spline segment holding
// the current key — what Lookup finds through the radix table and a
// binary search — is a cursor that only ever moves forward. A query in
// the gap above a key can be predicted as high as the next distinct
// key is, against a lower bound that is that key's rank: the very term
// the next key contributes for itself, so the gaps need no evaluation
// of their own. Every distinct key is interpolated once and no key is
// routed.
//
// The walk runs chunk-wise: a range of keys starts at its first distinct
// key, finds its cursor by binary search and takes margins of its own,
// which merge by max.
func computeMargins(keys []core.Key, idx *Index) (errLo, errHi int) {
	n, pts := len(keys), idx.keys
	margins := core.Parallel(n, func(_, lo, hi int) [2]int {
		lo, hi = distinctFrom(keys, lo), distinctFrom(keys, hi)
		errLo, errHi := idx.cfg.SplineErr+1, idx.cfg.SplineErr+1
		if lo == hi {
			return [2]int{errLo, errHi} // inside a run of duplicates that began before
		}
		seg := max(sort.Search(len(pts), func(j int) bool { return pts[j] > keys[lo] })-1, 0)
		for i := lo; i < hi; {
			k := keys[i]
			nr := i + 1 // lower-bound rank of any key in the gap above k
			for nr < n && keys[nr] == k {
				nr++
			}
			for seg+1 < len(pts) && pts[seg+1] <= k {
				seg++
			}
			pred := idx.interpolate(seg, k)
			errLo = max(errLo, pred-i+1)
			errHi = max(errHi, nr-pred+1)
			i = nr
		}
		return [2]int{errLo, errHi}
	})
	errLo, errHi = idx.cfg.SplineErr+1, idx.cfg.SplineErr+1
	for _, m := range margins {
		errLo, errHi = max(errLo, m[0]), max(errHi, m[1])
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

// Arrays describes the index: the radix table's two levels, then the
// spline points' keys and positions.
func (idx *Index) Arrays() []core.Array {
	return []core.Array{core.ArrayOf("base", idx.base), core.ArrayOf("fine", idx.fine), core.ArrayOf("keys", idx.keys), core.ArrayOf("pos", idx.pos)}
}

// SizeBytes implements core.Index.
func (idx *Index) SizeBytes() int { return core.SizeOf(idx.Arrays()...) }

// Name implements core.Index.
func (idx *Index) Name() string { return "RS" }

// AvgLog2Error returns log2 of the (global) bound width, the paper's
// log2-error metric.
func (idx *Index) AvgLog2Error() float64 {
	return math.Log2(float64(idx.errLo+idx.errHi+1) + 1)
}
