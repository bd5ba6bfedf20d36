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

// FaceOutliers is the number of extreme outlier keys in the face
// dataset, matching the paper's "≈ 100 large outlier keys".
const FaceOutliers = 100

// Generate produces the named dataset with n unique sorted keys.
func Generate(name Name, n int, seed uint64) ([]core.Key, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: n must be positive, got %d", n)
	}
	switch name {
	case Amzn:
		return genAmzn(n, seed), nil
	case Face:
		return genFace(n, seed), nil
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
// with mild lognormal noise per gap.
func genAmzn(n int, seed uint64) []core.Key {
	r := newRNG(seed ^ 0xA3A3)
	keys := make([]core.Key, n)
	cur := uint64(1)
	// Slowly drifting gap scale: piecewise segments of ~n/64 keys with
	// gap means that random-walk between 8 and 4096.
	logScale := 5.0 // log2 of mean gap
	var mean float64
	segLen := n/64 + 1
	for i := 0; i < n; i++ {
		if i%segLen == 0 {
			logScale += r.norm() * 0.8
			if logScale < 3 {
				logScale = 3
			}
			if logScale > 12 {
				logScale = 12
			}
			mean = math.Exp2(logScale)
		}
		gap := uint64(mean*r.lognorm(0, 0.35)) + 1
		cur += gap
		keys[i] = cur
	}
	return keys
}

// genFace builds near-uniform unique IDs in a mid-range span, then
// replaces the top FaceOutliers keys with extreme outliers in
// (2^59, 2^64), reproducing the paper's prefix-killing skew.
func genFace(n int, seed uint64) []core.Key {
	r := newRNG(seed ^ 0xFACE)
	span := uint64(1) << 50
	keys := uniqueUniform(r, n, 1, span)
	outliers := FaceOutliers
	if outliers > n/2 {
		outliers = n / 2
	}
	lo := uint64(1) << 59
	hi := ^uint64(0)
	for i := 0; i < outliers; i++ {
		keys[n-outliers+i] = lo + r.next()%(hi-lo)
	}
	sortKeys(keys)
	dedupeInPlaceFill(r, keys, 1, hi)
	return keys
}

// genOSM builds clustered 2-D points (Gaussian clusters on a 2^24 grid,
// mimicking cities and road networks) and projects them through a
// Hilbert curve of order 24, yielding 48-bit cell IDs whose CDF is
// smooth at a distance but erratic at every local scale.
func genOSM(n int, seed uint64) []core.Key {
	r := newRNG(seed ^ 0x05E5)
	const order = 24
	grid := uint64(1) << order
	nClusters := 512
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
	pick := func() *cluster {
		t := r.float64() * total
		lo, hi := 0, nClusters-1
		for lo < hi {
			mid := (lo + hi) / 2
			if clusters[mid].cumulat < t {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return &clusters[lo]
	}
	// Cells are drawn a block at a time and deduplicated afterwards.
	// Drawing one is a long dependent chain (two logarithms, a cosine, the
	// curve walk); a probe of the 32 MB set in the middle of it is a cache
	// miss with nothing to overlap, whereas the probes of a block, back
	// to back, overlap with each other. The draws and the order of the
	// cells are those of a one-at-a-time loop; it would have stopped at
	// the n-th distinct cell, so the rest of the last block is dropped.
	seen := newU64Set(n)
	keys := make([]core.Key, 0, n)
	var block [256]uint64
	for len(keys) < n {
		m := 0
		for m < len(block) {
			c := pick()
			x := int64(c.cx + r.norm()*c.sd)
			y := int64(c.cy + r.norm()*c.sd)
			if x < 0 || y < 0 || x >= int64(grid) || y >= int64(grid) {
				continue
			}
			block[m] = hilbertD2(order, uint64(x), uint64(y))
			m++
		}
		for _, d := range block[:] {
			if len(keys) < n && seen.add(d) {
				keys = append(keys, d)
			}
		}
	}
	sortKeys(keys)
	return keys
}

// genWiki builds timestamp-style keys: second-resolution arrival times
// with a bursty, periodically modulated rate. The result is monotone
// with smooth large-scale shape and dense/sparse alternation locally.
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

// uniqueUniform draws n unique uniform keys in [lo, hi).
func uniqueUniform(r *rng, n int, lo, hi uint64) []core.Key {
	seen := newU64Set(n)
	keys := make([]core.Key, 0, n)
	span := hi - lo
	for len(keys) < n {
		if k := lo + r.next()%span; seen.add(k) {
			keys = append(keys, k)
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
	chunks(n, func(lo, hi int) {
		r := r.at(lo)
		for i := lo; i < hi; i++ {
			out[i] = r.next()
		}
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
