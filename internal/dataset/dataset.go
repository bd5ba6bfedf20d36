// Package dataset generates the four benchmark datasets of the paper
// (Section 4.1.2) as synthetic equivalents with matched CDF character,
// plus lookup workloads and payloads.
//
// The paper's datasets are real-world snapshots (Amazon book
// popularity, Facebook user IDs, OSM cell IDs, Wikipedia edit
// timestamps) that are unavailable offline. Each generator here
// reproduces the property of its original that the paper's analysis
// depends on; see DESIGN.md for the substitution rationale.
//
// All keys are unique, sorted uint64 values; all generators are
// deterministic in their seed.
package dataset

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
)

// Name identifies one of the benchmark datasets.
type Name string

const (
	// Amzn mimics Amazon book-popularity keys: a globally smooth,
	// highly learnable CDF with mild local noise.
	Amzn Name = "amzn"
	// Face mimics Facebook user IDs: near-uniform keys plus ~100
	// extreme outliers at the top of the 64-bit range, which wreck
	// radix-table prefixes (the paper's RBS collapse).
	Face Name = "face"
	// OSM mimics OpenStreetMap cell IDs: clustered 2-D locations
	// projected through a Hilbert curve, yielding a locally-erratic,
	// hard-to-learn CDF.
	OSM Name = "osm"
	// Wiki mimics Wikipedia edit timestamps: monotone arrival times
	// with bursty rates and daily periodicity; smooth at large scale
	// with fine-grained structure.
	Wiki Name = "wiki"
)

// All lists the benchmark datasets in the paper's order.
func All() []Name { return []Name{Amzn, Face, OSM, Wiki} }

// DefaultN is the default dataset size. The paper uses 200M keys; this
// reproduction defaults to laptop-scale (see DESIGN.md substitution 2)
// and scales linearly via the harness -scale flag.
const DefaultN = 2_000_000

// faceOutliers is the number of extreme outlier keys in the face
// dataset, matching the paper's "≈ 100 large outlier keys".
const faceOutliers = 100

// faceSpan is the span of face's bulk keys: 1 + a draw mod faceSpan.
const faceSpan = 1<<50 - 1

// Generate produces the named dataset with n unique sorted keys.
func Generate(name Name, n int, seed uint64) ([]core.Key, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: n must be positive, got %d", n)
	}
	switch name {
	case Amzn:
		return genAmzn(n, seed), nil
	case Face:
		return genFace(n, seed, faceSpan), nil
	case OSM:
		return genOSM(n, seed), nil
	case Wiki:
		return genWiki(n, seed), nil
	default:
		return nil, fmt.Errorf("dataset: unknown dataset %q", name)
	}
}

// MustGenerate is Generate but panics on error; for benchmarks and
// examples where the name is a compile-time constant.
func MustGenerate(name Name, n int, seed uint64) []core.Key {
	keys, err := Generate(name, n, seed)
	if err != nil {
		panic(err)
	}
	return keys
}

// genAmzn builds a smooth popularity-style key set: key values are the
// cumulative sums of positive gaps whose scale drifts slowly (regions
// of locally-linear CDF the paper notes learned structures exploit),
// with mild lognormal noise per gap. The scale is piecewise: segments of
// ~n/64 keys whose mean gaps random-walk between 8 and 4096.
//
// A key takes a normal variate for its gap, and a key that starts a
// segment one before it for the segment's scale: two draws each. The
// variates are drawn chunk-wise (speculate), the scales then walk one
// after the other, the gaps follow chunk-wise, and the keys are their
// running sum from 1, in exact integer arithmetic.
func genAmzn(n int, seed uint64) []core.Key {
	r := newRNG(seed ^ 0xA3A3)
	keys := make([]core.Key, n) // the gaps' variates as bits, then the gaps, then the keys
	segLen := n/64 + 1
	// Each segment's variate, then its mean gap.
	scales := make([]float64, (n+segLen-1)/segLen)
	// starts counts the segment starts before key i.
	starts := func(i int) int { return (i + segLen - 1) / segLen }
	for from := 0; from < n; {
		at := func(j int) int { return 2*j + 2*(starts(from+j)-starts(from)) }
		miss, g := speculate(r, n-from, at, func(g *rng, j int) int {
			i, draws := from+j, 2
			if i%segLen == 0 {
				scales[i/segLen], draws = g.norm(), 4
			}
			keys[i] = math.Float64bits(g.norm())
			return draws
		})
		if g == nil {
			break
		}
		r, from = g, from+miss+1
	}
	logScale := 5.0 // log2 of the mean gap
	for s, z := range scales {
		logScale = min(max(logScale+z*0.8, 3), 12)
		scales[s] = math.Exp2(logScale)
	}
	// The running sum: every range turns its variates into gaps and adds
	// them up, the sums before each range are added up in range order,
	// and every range adds on from its own.
	sums := core.Parallel(n, func(_, lo, hi int) uint64 {
		var sum uint64
		for i := lo; i < hi; i++ {
			// The gap is the mean times lognormal(0, 0.35) of the variate.
			keys[i] = uint64(scales[i/segLen]*math.Exp(0+0.35*math.Float64frombits(keys[i]))) + 1
			sum += keys[i]
		}
		return sum
	})
	cur := uint64(1)
	for k, sum := range sums {
		sums[k], cur = cur, cur+sum
	}
	core.Parallel(n, func(k, lo, hi int) struct{} {
		cur := sums[k]
		for i := lo; i < hi; i++ {
			cur += keys[i]
			keys[i] = cur
		}
		return struct{}{}
	})
	return keys
}

// genFace builds near-uniform unique IDs in a mid-range span, then
// replaces the top faceOutliers keys with extreme outliers in
// (2^59, 2^64), reproducing the paper's prefix-killing skew.
//
// The bulk is the first n distinct draws, one draw each, 1 + a draw mod
// span (faceSpan: below 2^50; the tests shrink it to force repeats); the
// outliers overwrite the last of them in draw order. The draws fill
// chunk-wise on the assumption that none repeats, and the check comes
// after the sort: the bulk must be strictly increasing there, and the
// overwritten draws must be absent from it and from each other. A
// repeat (expected once in ~500 key sets of 2M) is a miss: the draws
// fill again, in draw order, the first repeat is skipped, and the fill
// resumes one draw later from that key on.
func genFace(n int, seed, span uint64) []core.Key {
	r := newRNG(seed ^ 0xFACE)
	outLo, outHi := uint64(1)<<59, ^uint64(0)
	outliers := min(faceOutliers, n/2)
	keys := make([]core.Key, n)
	// Key i takes draw i plus the number of skips at or before it.
	var skips []int
	fill := func() {
		core.Parallel(n, func(_, lo, hi int) struct{} {
			s, _ := slices.BinarySearch(skips, lo+1) // the skips at or before lo
			g := r.at(lo + s)
			for i := lo; i < hi; i++ {
				for ; s < len(skips) && skips[s] == i; s++ {
					g.next()
				}
				keys[i] = 1 + g.next()%span
			}
			return struct{}{}
		})
	}
	for {
		fill()
		tail := slices.Clone(keys[n-outliers:])
		g := r.at(n + len(skips))
		for i := range tail {
			keys[n-outliers+i] = outLo + g.next()%(outHi-outLo)
		}
		// Every outlier is above the bulk: the two sort apart, and the
		// bulk's top byte is constant.
		bulk := keys[:n-outliers]
		sortKeys(bulk)
		sortKeys(keys[n-outliers:])
		if distinct(bulk, tail) {
			// Only two outliers can be equal now; if they are, the
			// repair draws again.
			if !increasing(keys[n-outliers:]) {
				dedupeInPlaceFill(g, keys, 1, outHi)
			}
			return keys
		}
		fill()
		skips = append(skips, firstRepeat(keys))
	}
}

// distinct reports whether the sorted bulk holds no value twice and no
// draw of tail is in it or in tail twice.
func distinct(bulk, tail []core.Key) bool {
	if !increasing(bulk) {
		return false
	}
	for i, k := range tail {
		if _, found := slices.BinarySearch(bulk, k); found || slices.Contains(tail[:i], k) {
			return false
		}
	}
	return true
}

// increasing reports whether keys is strictly increasing.
func increasing(keys []core.Key) bool {
	ok := core.Parallel(len(keys), func(_, lo, hi int) bool {
		for i := max(lo, 1); i < hi; i++ {
			if keys[i] <= keys[i-1] {
				return false
			}
		}
		return true
	})
	return !slices.Contains(ok, false)
}

// firstRepeat returns the first i at which keys[i] is some earlier
// keys[j], or len(keys).
func firstRepeat(keys []core.Key) int {
	sorted := slices.Clone(keys)
	sortKeys(sorted)
	seen := map[core.Key]bool{} // the values keys holds twice or more: seen yet
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			seen[sorted[i]] = false
		}
	}
	for i, k := range keys {
		if done, twice := seen[k]; twice {
			if done {
				return i
			}
			seen[k] = true
		}
	}
	return len(keys)
}

// genOSM builds clustered 2-D points (Gaussian clusters on a 2^24 grid,
// mimicking cities and road networks) and projects them through a
// Hilbert curve of order 24, yielding 48-bit cell IDs whose CDF is
// smooth at a distance but erratic at every local scale.
func genOSM(n int, seed uint64) []core.Key {
	r := newRNG(seed ^ 0x05E5)
	const order = 24
	grid := uint64(1) << order
	const nClusters = 512 // a power of two: the cluster search halves it
	type cluster struct {
		cx, cy  float64
		sd      float64
		weight  float64
		cumulat float64
	}
	clusters := make([]cluster, nClusters)
	total := 0.0
	for i := range clusters {
		c := &clusters[i]
		c.cx = r.float64() * float64(grid)
		c.cy = r.float64() * float64(grid)
		// Cluster spread varies over three orders of magnitude:
		// dense cities to sparse rural regions.
		c.sd = math.Exp2(6 + r.float64()*12)
		c.weight = r.exp() * r.exp() // heavy-ish tail of cluster sizes
		total += c.weight
		c.cumulat = total
	}
	// An attempt picks a cluster (one draw) and a point around it (two
	// normal variates, two draws each); a point off the grid is no cell.
	const offGrid = ^uint64(0)
	// The running weights as bits: non-negative floats order as their
	// bits do, and integers compare without a branch.
	var cumBits [nClusters]uint64
	for i, c := range clusters {
		cumBits[i] = math.Float64bits(c.cumulat)
	}
	attempt := func(g *rng) uint64 {
		// The cluster is the first whose running weight reaches t, or the
		// last: the count of the first nClusters-1 below t, which a
		// binary search finds without branching on them.
		t := math.Float64bits(g.float64() * total)
		i := 0
		for step := nClusters / 2; step > 0; step >>= 1 {
			below := 0
			if cumBits[i+step-1] < t {
				below = 1
			}
			i += step & -below
		}
		c := &clusters[i]
		x := int64(c.cx + g.norm()*c.sd)
		y := int64(c.cy + g.norm()*c.sd)
		if x < 0 || y < 0 || x >= int64(grid) || y >= int64(grid) {
			return offGrid
		}
		return hilbertD2(order, uint64(x), uint64(y))
	}
	// The attempts are made a batch at a time, chunk-wise on the
	// assumption of five draws each (speculate); next hands out their
	// cells in attempt order, off-grid ones skipped. Fewer than one
	// attempt in a hundred is off the grid or a cell drawn before, so the
	// first batch is sized to hold n cells with room to spare.
	var cells []uint64
	at := 0
	next := func() uint64 {
		for {
			for ; at < len(cells); at++ {
				if c := cells[at]; c != offGrid {
					at++
					return c
				}
			}
			m := n/32 + 1024
			if cells == nil {
				m += n
			}
			cells, at = slices.Grow(cells[:0], m)[:m], 0
			for from := 0; from < m; {
				miss, g := speculate(r, m-from, func(j int) int { return 5 * j }, func(g *rng, j int) int {
					cells[from+j] = attempt(g)
					return 5
				})
				if g == nil {
					r, from = r.at(5*miss), m
				} else {
					r, from = g, from+miss+1
				}
			}
		}
	}
	// The key set is the first n distinct cells in attempt order. The
	// first n cells, sorted, hold all but the repeats among them; the
	// cells after them are taken one at a time until n are distinct.
	keys := make([]core.Key, n)
	for i := range keys {
		keys[i] = next()
	}
	sortKeys(keys)
	u := 0 // distinct keys, moved to the front
	for i, k := range keys {
		if i == 0 || k != keys[u-1] {
			keys[u] = k
			u++
		}
	}
	var more []core.Key
	taken := map[core.Key]bool{}
	for u+len(more) < n {
		if c := next(); !taken[c] {
			if _, found := slices.BinarySearch(keys[:u], c); !found {
				taken[c] = true
				more = append(more, c)
			}
		}
	}
	// Merge the later cells in, from the top down.
	slices.Sort(more)
	for i, j, w := u-1, len(more)-1, n-1; j >= 0; w-- {
		if i >= 0 && keys[i] > more[j] {
			keys[w], i = keys[i], i-1
		} else {
			keys[w], j = more[j], j-1
		}
	}
	return keys
}

// genWiki builds timestamp-style keys: second-resolution arrival times
// with a bursty, periodically modulated rate. The result is monotone
// with smooth large-scale shape and dense/sparse alternation locally.
//
// It is the one generator that runs one key after the other: every key
// passes the float time so far through a sine, so no key can be drawn
// before the one ahead of it is.
func genWiki(n int, seed uint64) []core.Key {
	r := newRNG(seed ^ 0x3171)
	keys := make([]core.Key, n)
	// Start around 2001-01-15 in seconds.
	cur := float64(979_516_800)
	burst := 1.0
	for i := 0; i < n; i++ {
		if r.float64() < 0.001 {
			// Regime switch: edit storms and lulls.
			burst = math.Exp2(r.float64()*6 - 3)
		}
		// Daily periodicity on top of the burst level.
		phase := math.Sin(cur / 86400 * 2 * math.Pi)
		rate := burst * (1.2 + phase)
		if rate < 0.05 {
			rate = 0.05
		}
		cur += r.exp()/rate + 0.001
		keys[i] = core.Key(cur * 1000) // millisecond resolution keeps keys unique
	}
	// The additive 0.001s step guarantees strict monotonicity at ms
	// resolution, but verify and repair defensively.
	for i := 1; i < n; i++ {
		if keys[i] <= keys[i-1] {
			keys[i] = keys[i-1] + 1
		}
	}
	return keys
}

// dedupeInPlaceFill repairs any duplicates introduced by outlier
// injection: duplicates are nudged to unused values and the slice is
// re-sorted. Duplicates are vanishingly rare; this keeps the contract
// that datasets contain unique keys.
func dedupeInPlaceFill(r *rng, keys []core.Key, lo, hi uint64) {
	for {
		dup := false
		for i := 1; i < len(keys); i++ {
			if keys[i] == keys[i-1] {
				keys[i] = lo + r.next()%(hi-lo)
				dup = true
			}
		}
		if !dup {
			return
		}
		sortKeys(keys)
	}
}

// Lookups samples m lookup keys uniformly from keys (with repetition),
// matching the paper's workload of random lookups of present keys.
func Lookups(keys []core.Key, m int, seed uint64) []core.Key {
	return sample(keys, m, newRNG(seed^0x100C), uniform(len(keys)))
}

// AbsentLookups samples m lookup keys that are not present in keys by
// perturbing present keys; useful for validity testing of absent-key
// bounds.
func AbsentLookups(keys []core.Key, m int, seed uint64) []core.Key {
	r := newRNG(seed ^ 0xAB5E)
	out := make([]core.Key, 0, m)
	for len(out) < m {
		k := keys[r.intn(len(keys))] + 1 + uint64(r.intn(3))
		i := core.LowerBound(keys, k)
		if i < len(keys) && keys[i] == k {
			continue
		}
		out = append(out, k)
	}
	return out
}

// Payloads generates n pseudo-random 8-byte payload values. The paper
// attaches 8-byte payloads to every key and sums them during lookups to
// keep results honest.
func Payloads(n int, seed uint64) []uint64 {
	r := newRNG(seed ^ 0x9A71)
	out := make([]uint64, n)
	core.Parallel(n, func(_, lo, hi int) struct{} {
		r := r.at(lo)
		for i := lo; i < hi; i++ {
			out[i] = r.next()
		}
		return struct{}{}
	})
	return out
}

// To32 rescales 64-bit keys into unique sorted 32-bit keys for the
// key-size experiment (Section 4.2.2), preserving the CDF shape by
// rank-preserving compression into the 32-bit range.
func To32(keys []core.Key) []core.Key32 {
	n := len(keys)
	out := make([]core.Key32, n)
	if n == 0 {
		return out
	}
	minK, maxK := keys[0], keys[n-1]
	span := float64(maxK - minK)
	if span == 0 {
		span = 1
	}
	const maxU32 = float64(^uint32(0) - 1)
	prev := int64(-1)
	for i, k := range keys {
		v := int64(float64(k-minK) / span * maxU32)
		if v <= prev {
			v = prev + 1 // preserve strict ordering/uniqueness
		}
		prev = v
		out[i] = core.Key32(v)
	}
	return out
}

// CDF returns m evenly spaced (key, relative position) samples of the
// dataset's CDF, for Figure 6.
func CDF(keys []core.Key, m int) (xs []core.Key, ys []float64) {
	n := len(keys)
	if m > n {
		m = n
	}
	if n == 0 || m <= 0 {
		return nil, nil
	}
	xs = make([]core.Key, m)
	ys = make([]float64, m)
	if m == 1 || n == 1 {
		xs[0], ys[0] = keys[0], 0
		return xs[:1], ys[:1]
	}
	for i := 0; i < m; i++ {
		idx := i * (n - 1) / (m - 1)
		xs[i] = keys[idx]
		ys[i] = float64(idx) / float64(n-1)
	}
	return xs, ys
}

// Checksum fingerprints a key set: FNV-1a over the little-endian key
// bytes, deterministic across runs and platforms. It is the dataset
// identity printed in startup summaries and recorded in run metadata.
func Checksum(keys []core.Key) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for _, k := range keys {
		for i := 0; i < 64; i += 8 {
			h = (h ^ uint64(byte(k>>i))) * 1099511628211
		}
	}
	return h
}
