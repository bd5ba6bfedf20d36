package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// exactQuantile mirrors Histogram.Quantile's rank convention on a
// sorted sample slice: the ceil(q*n)-th smallest sample.
func exactQuantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// checkQuantiles records samples and asserts every tested quantile is
// within the documented relative-error bound of the exact quantile.
func checkQuantiles(t *testing.T, name string, samples []int64) {
	t.Helper()
	h := &Histogram{}
	for _, v := range samples {
		h.Record(v)
	}
	sorted := append([]int64(nil), samples...)
	for i, v := range sorted {
		if v < 0 {
			sorted[i] = 0 // Record clamps negatives
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	if h.Count() != uint64(len(samples)) {
		t.Fatalf("%s: Count = %d, want %d", name, h.Count(), len(samples))
	}
	if h.Max() != sorted[len(sorted)-1] {
		t.Fatalf("%s: Max = %d, want %d", name, h.Max(), sorted[len(sorted)-1])
	}
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		got := h.Quantile(q)
		want := exactQuantile(sorted, q)
		if q == 1 {
			if got != want {
				t.Fatalf("%s: Quantile(1) = %d, want exact max %d", name, got, want)
			}
			continue
		}
		bound := HistMaxRelError * float64(want)
		if bound < 0.5 {
			bound = 0.5 // exact region: midpoint == value, allow integer slack only
		}
		if math.Abs(float64(got-want)) > bound {
			t.Fatalf("%s: Quantile(%g) = %d, want %d ± %.1f (rel err %.4f > %.4f)",
				name, q, got, want, bound,
				math.Abs(float64(got-want))/float64(want), HistMaxRelError)
		}
	}
}

// TestHistogramQuantileProperty is the satellite property test: on
// randomized uniform, zipf, and bimodal latency distributions the
// histogram's quantiles must match exact sorted-slice quantiles to
// within the documented HistMaxRelError bound.
func TestHistogramQuantileProperty(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		r := rand.New(rand.NewSource(int64(trial) + 1))
		n := 1000 + r.Intn(9000)

		uniform := make([]int64, n)
		for i := range uniform {
			uniform[i] = r.Int63n(5_000_000) // up to 5ms
		}
		checkQuantiles(t, "uniform", uniform)

		// Zipf-ish: heavy-tailed latencies spanning many decades, the
		// shape tail measurement exists for.
		zipfGen := rand.NewZipf(r, 1.2, 1, 1<<30)
		zipf := make([]int64, n)
		for i := range zipf {
			zipf[i] = int64(zipfGen.Uint64()) + 50
		}
		checkQuantiles(t, "zipf", zipf)

		// Bimodal: a fast mode (cache hit) and a slow mode (compaction
		// stall) three orders of magnitude apart.
		bimodal := make([]int64, n)
		for i := range bimodal {
			if r.Float64() < 0.9 {
				bimodal[i] = 100 + r.Int63n(400)
			} else {
				bimodal[i] = 300_000 + r.Int63n(700_000)
			}
		}
		checkQuantiles(t, "bimodal", bimodal)
	}
}

// TestHistogramQuick drives the same property through testing/quick
// with arbitrary sample vectors (including negatives, zeros, and
// extreme values).
func TestHistogramQuick(t *testing.T) {
	prop := func(raw []int64, qSeed uint16) bool {
		if len(raw) == 0 {
			h := &Histogram{}
			return h.Quantile(0.5) == 0 && h.Count() == 0
		}
		h := &Histogram{}
		sorted := make([]int64, len(raw))
		for i, v := range raw {
			h.Record(v)
			if v < 0 {
				v = 0
			}
			sorted[i] = v
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		q := 0.001 + 0.999*float64(qSeed)/math.MaxUint16
		got := h.Quantile(q)
		want := exactQuantile(sorted, q)
		bound := HistMaxRelError * float64(want)
		if bound < 0.5 {
			bound = 0.5
		}
		return math.Abs(float64(got-want)) <= bound
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramBucketRoundTrip pins the bucket layout: every bucket
// index maps back into itself through its midpoint, and bucket
// boundaries are continuous (no value maps below a smaller value's
// bucket).
func TestHistogramBucketRoundTrip(t *testing.T) {
	for idx := 0; idx < histBuckets; idx++ {
		mid := bucketMid(idx)
		if got := bucketIdx(mid); got != idx {
			t.Fatalf("bucketIdx(bucketMid(%d)) = %d", idx, got)
		}
	}
	prev := -1
	for _, v := range []int64{0, 1, 31, 32, 63, 64, 65, 127, 128, 1 << 20, 1<<20 + 1, math.MaxInt64} {
		idx := bucketIdx(v)
		if idx < prev {
			t.Fatalf("bucketIdx not monotone at %d: %d < %d", v, idx, prev)
		}
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketIdx(%d) = %d out of range", v, idx)
		}
		prev = idx
	}
	if got := bucketIdx(-5); got != 0 {
		t.Fatalf("negative sample bucket = %d, want 0", got)
	}
}

// TestHistogramMerge asserts merging k per-worker histograms is
// equivalent to recording everything into one.
func TestHistogramMerge(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	whole := &Histogram{}
	parts := []*Histogram{{}, {}, {}, {}}
	for i := 0; i < 40_000; i++ {
		v := r.Int63n(1 << uint(10+r.Intn(20)))
		whole.Record(v)
		parts[i%len(parts)].Record(v)
	}
	merged := &Histogram{}
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.Count() != whole.Count() || merged.Max() != whole.Max() {
		t.Fatalf("merge count/max mismatch: %v vs %v", merged, whole)
	}
	if merged.mean() != whole.mean() {
		t.Fatalf("merge mean mismatch: %v vs %v", merged.mean(), whole.mean())
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
		if merged.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("merge quantile(%g) mismatch: %d vs %d",
				q, merged.Quantile(q), whole.Quantile(q))
		}
	}
}

// FuzzHistogramQuantiles fuzzes the quantile property with a seed
// corpus covering the exact region, bucket edges, and the top of the
// int64 range.
func FuzzHistogramQuantiles(f *testing.F) {
	f.Add(int64(0), int64(1), int64(63), uint16(32768))
	f.Add(int64(64), int64(65), int64(127), uint16(65535))
	f.Add(int64(100), int64(300_000), int64(1_000_000), uint16(990))
	f.Add(int64(-7), int64(0), int64(math.MaxInt64), uint16(1))
	f.Add(int64(1<<40), int64(1<<40+1), int64(1<<41), uint16(50000))
	f.Fuzz(func(t *testing.T, a, b, c int64, qSeed uint16) {
		samples := []int64{a, b, c, a, b}
		h := &Histogram{}
		sorted := make([]int64, len(samples))
		for i, v := range samples {
			h.Record(v)
			if v < 0 {
				v = 0
			}
			sorted[i] = v
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		q := 0.001 + 0.999*float64(qSeed)/math.MaxUint16
		got := h.Quantile(q)
		want := exactQuantile(sorted, q)
		bound := HistMaxRelError * float64(want)
		if bound < 0.5 {
			bound = 0.5
		}
		if math.Abs(float64(got-want)) > bound {
			t.Fatalf("Quantile(%g) = %d, want %d ± %.1f", q, got, want, bound)
		}
		if h.Max() != sorted[len(sorted)-1] {
			t.Fatalf("Max = %d, want %d", h.Max(), sorted[len(sorted)-1])
		}
	})
}
