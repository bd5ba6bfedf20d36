package dataset

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
)

const testN = 50_000

func checkDataset(t *testing.T, name Name) []core.Key {
	t.Helper()
	keys, err := Generate(name, testN, 1)
	if err != nil {
		t.Fatalf("Generate(%s): %v", name, err)
	}
	if len(keys) != testN {
		t.Fatalf("%s: got %d keys, want %d", name, len(keys), testN)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("%s: keys not strictly increasing at %d: %d <= %d", name, i, keys[i], keys[i-1])
		}
	}
	return keys
}

func TestGenerateAllDatasets(t *testing.T) {
	for _, name := range All() {
		checkDataset(t, name)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, name := range All() {
		a := MustGenerate(name, 10_000, 7)
		b := MustGenerate(name, 10_000, 7)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: not deterministic at %d", name, i)
			}
		}
		c := MustGenerate(name, 10_000, 8)
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: different seeds produced identical datasets", name)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate("nope", 10, 1); err == nil {
		t.Error("expected error for unknown dataset")
	}
	if _, err := Generate(Amzn, 0, 1); err == nil {
		t.Error("expected error for n=0")
	}
	if _, err := Generate(Amzn, -5, 1); err == nil {
		t.Error("expected error for negative n")
	}
}

func TestFaceOutliers(t *testing.T) {
	keys := checkDataset(t, Face)
	// The top faceOutliers keys must sit in the extreme range (>= 2^59)
	// while the bulk stays below 2^50 — this is what breaks radix
	// prefixes in the paper.
	bulkMax := uint64(1) << 50
	outlierMin := uint64(1) << 59
	nOut := 0
	for _, k := range keys {
		if k >= outlierMin {
			nOut++
		} else if k >= bulkMax {
			t.Fatalf("face key %d in the dead zone [2^50, 2^59)", k)
		}
	}
	if nOut < faceOutliers-5 || nOut > faceOutliers {
		t.Errorf("face: got %d outliers, want ≈%d", nOut, faceOutliers)
	}
}

// localLearnability measures how well small pieces of the CDF are
// approximated by a straight line: for each block of 256 consecutive
// keys, fit the line through the block's endpoints and report the mean
// absolute position error as a fraction of the block length. This is
// the property the paper attributes osm's difficulty to ("even small
// pieces of the CDF exhibit difficult-to-model erratic behavior").
func localLearnability(keys []core.Key) float64 {
	const block = 256
	n := len(keys)
	total, blocks := 0.0, 0
	for s := 0; s+block <= n; s += block {
		k0, k1 := float64(keys[s]), float64(keys[s+block-1])
		span := k1 - k0
		if span == 0 {
			continue
		}
		errSum := 0.0
		for i := 0; i < block; i++ {
			pred := (float64(keys[s+i]) - k0) / span * float64(block-1)
			d := pred - float64(i)
			if d < 0 {
				d = -d
			}
			errSum += d
		}
		total += errSum / block / block
		blocks++
	}
	return total / float64(blocks)
}

func TestOSMHarderThanAmzn(t *testing.T) {
	amzn := MustGenerate(Amzn, testN, 1)
	osm := MustGenerate(OSM, testN, 1)
	la, lo := localLearnability(amzn), localLearnability(osm)
	// The paper's discriminating property: osm's CDF is locally erratic,
	// amzn's is locally near-linear. Require a clear separation.
	if lo < 2*la {
		t.Errorf("expected osm local error (%f) >> amzn local error (%f)", lo, la)
	}
}

func TestHilbertRoundTrip(t *testing.T) {
	const order = 8
	for d := uint64(0); d < 1<<(2*order); d += 17 {
		x, y := hilbertXY(order, d)
		if got := hilbertD2(order, x, y); got != d {
			t.Fatalf("hilbert round trip failed: d=%d -> (%d,%d) -> %d", d, x, y, got)
		}
	}
}

func TestHilbertLocality(t *testing.T) {
	// Adjacent curve positions must be adjacent grid cells (the defining
	// property of the Hilbert curve).
	const order = 6
	for d := uint64(0); d < 1<<(2*order)-1; d++ {
		x1, y1 := hilbertXY(order, d)
		x2, y2 := hilbertXY(order, d+1)
		dx := int64(x1) - int64(x2)
		dy := int64(y1) - int64(y2)
		if dx*dx+dy*dy != 1 {
			t.Fatalf("hilbert not contiguous at d=%d: (%d,%d) -> (%d,%d)", d, x1, y1, x2, y2)
		}
	}
}

func TestLookups(t *testing.T) {
	keys := MustGenerate(Amzn, 10_000, 1)
	lk := Lookups(keys, 5000, 1)
	if len(lk) != 5000 {
		t.Fatalf("got %d lookups", len(lk))
	}
	for _, x := range lk {
		i := core.LowerBound(keys, x)
		if i >= len(keys) || keys[i] != x {
			t.Fatalf("lookup key %d not present in dataset", x)
		}
	}
	// Deterministic.
	lk2 := Lookups(keys, 5000, 1)
	for i := range lk {
		if lk[i] != lk2[i] {
			t.Fatal("lookups not deterministic")
		}
	}
}

func TestAbsentLookups(t *testing.T) {
	keys := MustGenerate(Wiki, 10_000, 1)
	lk := AbsentLookups(keys, 1000, 1)
	for _, x := range lk {
		i := core.LowerBound(keys, x)
		if i < len(keys) && keys[i] == x {
			t.Fatalf("absent lookup key %d is present", x)
		}
	}
}

func TestPayloads(t *testing.T) {
	p := Payloads(1000, 3)
	if len(p) != 1000 {
		t.Fatalf("got %d payloads", len(p))
	}
	q := Payloads(1000, 3)
	for i := range p {
		if p[i] != q[i] {
			t.Fatal("payloads not deterministic")
		}
	}
}

func TestTo32(t *testing.T) {
	keys := MustGenerate(Amzn, 20_000, 1)
	k32 := To32(keys)
	if len(k32) != len(keys) {
		t.Fatalf("length mismatch")
	}
	for i := 1; i < len(k32); i++ {
		if k32[i] <= k32[i-1] {
			t.Fatalf("To32 not strictly increasing at %d", i)
		}
	}
}

func TestTo32Face(t *testing.T) {
	// Outlier-heavy data compresses the bulk into a small prefix; the
	// rank-preserving nudge must keep everything unique and in range.
	keys := MustGenerate(Face, 20_000, 1)
	k32 := To32(keys)
	for i := 1; i < len(k32); i++ {
		if k32[i] <= k32[i-1] {
			t.Fatalf("To32(face) not strictly increasing at %d", i)
		}
	}
}

func TestTo32Empty(t *testing.T) {
	if got := To32(nil); len(got) != 0 {
		t.Error("To32(nil) should be empty")
	}
}

func TestCDF(t *testing.T) {
	keys := MustGenerate(Amzn, 10_000, 1)
	xs, ys := CDF(keys, 100)
	if len(xs) != 100 || len(ys) != 100 {
		t.Fatalf("got %d/%d samples", len(xs), len(ys))
	}
	if ys[0] != 0 || ys[99] != 1 {
		t.Errorf("CDF endpoints: %f..%f, want 0..1", ys[0], ys[99])
	}
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1] || xs[i] < xs[i-1] {
			t.Fatal("CDF not monotone")
		}
	}
}

func TestCDFEdgeCases(t *testing.T) {
	if xs, ys := CDF(nil, 10); xs != nil || ys != nil {
		t.Error("CDF(nil) should be nil")
	}
	xs, ys := CDF([]core.Key{5}, 10)
	if len(xs) != 1 || ys[0] != 0 {
		t.Error("CDF single key")
	}
}

func TestRNGUniform(t *testing.T) {
	r := newRNG(1)
	n := 100_000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.float64()
		if v < 0 || v >= 1 {
			t.Fatalf("float64 out of range: %f", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if mean < 0.49 || mean > 0.51 {
		t.Errorf("uniform mean = %f, want ≈0.5", mean)
	}
}

func TestRNGNorm(t *testing.T) {
	r := newRNG(2)
	n := 100_000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if mean < -0.02 || mean > 0.02 {
		t.Errorf("normal mean = %f, want ≈0", mean)
	}
	if variance < 0.95 || variance > 1.05 {
		t.Errorf("normal variance = %f, want ≈1", variance)
	}
}

func TestRNGIntn(t *testing.T) {
	r := newRNG(3)
	f := func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZipfLookups(t *testing.T) {
	keys := MustGenerate(Amzn, 20000, 5)
	m := 40000
	lk := ZipfLookups(keys, m, 0.99, 9)
	if len(lk) != m {
		t.Fatalf("got %d lookups, want %d", len(lk), m)
	}
	counts := make(map[core.Key]int)
	for _, x := range lk {
		pos := core.LowerBound(keys, x)
		if pos >= len(keys) || keys[pos] != x {
			t.Fatalf("zipf lookup %d not a present key", x)
		}
		counts[x]++
	}
	// Skew: the hottest key must take far more than the uniform share
	// (uniform expectation is m/n = 2), and the distinct-key count must
	// be well below m.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 100 {
		t.Errorf("hottest key drew %d lookups; zipf(0.99) should concentrate far above uniform share 2", max)
	}
	// Determinism in the seed.
	lk2 := ZipfLookups(keys, m, 0.99, 9)
	for i := range lk {
		if lk[i] != lk2[i] {
			t.Fatal("ZipfLookups not deterministic in seed")
		}
	}
	// theta <= 0 degrades to uniform: no key should dominate.
	uni := ZipfLookups(keys, m, 0, 9)
	uc := make(map[core.Key]int)
	umax := 0
	for _, x := range uni {
		uc[x]++
		if uc[x] > umax {
			umax = uc[x]
		}
	}
	if umax > 50 {
		t.Errorf("uniform fallback has a %d-count hot key", umax)
	}
}

func TestInsertKeys(t *testing.T) {
	keys := MustGenerate(Wiki, 10000, 11)
	ins := InsertKeys(keys, 5000, 13)
	if len(ins) != 5000 {
		t.Fatalf("got %d insert keys, want 5000", len(ins))
	}
	seen := make(map[core.Key]struct{}, len(ins))
	for _, k := range ins {
		if pos := core.LowerBound(keys, k); pos < len(keys) && keys[pos] == k {
			t.Fatalf("insert key %d already present in the dataset", k)
		}
		if _, dup := seen[k]; dup {
			t.Fatalf("duplicate insert key %d", k)
		}
		seen[k] = struct{}{}
	}
}

func TestArrivals(t *testing.T) {
	const n = 50_000
	const rate = 100_000.0 // requests/sec
	arr := Arrivals(n, rate, 3)
	if len(arr) != n {
		t.Fatalf("got %d arrivals, want %d", len(arr), n)
	}
	prev := time.Duration(-1)
	for i, a := range arr {
		if a <= prev {
			t.Fatalf("arrival %d not increasing: %v after %v", i, a, prev)
		}
		prev = a
	}
	// The empirical rate of a Poisson process over n events concentrates
	// around the target: n / T_n within a few percent at this n.
	got := float64(n) / arr[n-1].Seconds()
	if got < rate*0.95 || got > rate*1.05 {
		t.Fatalf("empirical rate %.0f, want %.0f ± 5%%", got, rate)
	}
	// Deterministic in seed.
	again := Arrivals(10, rate, 3)
	for i := range again {
		if again[i] != arr[i] {
			t.Fatal("Arrivals not deterministic in seed")
		}
	}
}

// TestGoldenStreams pins every generator to the streams recorded at
// commit 9ff2292: set-up optimisations (slices.Sort, the hoisted zipf
// constant) must leave the benchmark's inputs bit-identical.
func TestGoldenStreams(t *testing.T) {
	golden := []struct {
		ds                     Name
		full, small, zipf, ins uint64
	}{
		{Amzn, 0xfd019eedac94b238, 0xf17d4d6265736365, 0x3d4333062067dc4a, 0xc0e168eec7c312b1},
		{Face, 0xf232bde47753e910, 0x9c4d1ff2fff942f2, 0x981828b8741f87ab, 0x1077b7e341cf8061},
		{OSM, 0x0b3ed379ef617fd2, 0x83f5dc5712f64d53, 0x09be9c748845f758, 0xf248f700aeb0a539},
		{Wiki, 0x2a9ee9c981ddfe6c, 0x1ce69c5b114f87ae, 0x90a8b92155e59149, 0x23fb6bd71a788ffe},
	}
	for _, g := range golden {
		keys := MustGenerate(g.ds, 50_000, 1)
		if got := Checksum(keys); got != g.small {
			t.Errorf("%s n=50k: checksum %016x, want %016x", g.ds, got, g.small)
		}
		if got := Checksum(ZipfLookups(keys, 20_000, 0.99, 7)); got != g.zipf {
			t.Errorf("%s: ZipfLookups checksum %016x, want %016x", g.ds, got, g.zipf)
		}
		if got := Checksum(InsertKeys(keys, 20_000, 7)); got != g.ins {
			t.Errorf("%s: InsertKeys checksum %016x, want %016x", g.ds, got, g.ins)
		}
		if testing.Short() {
			continue
		}
		if got := Checksum(MustGenerate(g.ds, 2_000_000, 1)); got != g.full {
			t.Errorf("%s n=2M: checksum %016x, want %016x", g.ds, got, g.full)
		}
	}
}

// hilbertXY is the inverse of hilbertD2: it maps a curve distance back
// to 2-D coordinates. Exported only for testing the round trip.
func hilbertXY(order uint, d uint64) (x, y uint64) {
	t := d
	for s := uint64(1); s < uint64(1)<<order; s <<= 1 {
		rx := 1 & (t / 2)
		ry := 1 & (t ^ rx)
		// Rotate back.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}
