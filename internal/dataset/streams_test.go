package dataset

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
)

// streamSizes are the stream lengths every stream test runs: empty, one
// item, one short of a block of 256, a block, one past it, and a prime
// that no CPU count divides.
var streamSizes = []int{0, 1, 255, 256, 257, 20_011}

// streams draws every stream generator at length m over keys. Payloads
// are keys too (core.Key is uint64), so Checksum covers them.
func streams(keys []core.Key, m int) map[string][]core.Key {
	return map[string][]core.Key{
		"payloads": Payloads(m, 7),
		"lookups":  Lookups(keys, m, 7),
		"uniform":  ZipfLookups(keys, m, 0, 7),
		"zipf":     ZipfLookups(keys, m, 0.99, 7),
		"inserts":  InsertKeys(keys, m, 7),
	}
}

// TestGoldenStreamSizes pins the streams TestGoldenStreams does not —
// payloads, uniform lookups, the theta <= 0 fallback of ZipfLookups —
// and every stream at the lengths where a block-wise, chunked generator
// could go wrong, to the checksums recorded at commit 04cc7b8 (one draw
// per item, one after the other, on one goroutine).
func TestGoldenStreamSizes(t *testing.T) {
	golden := map[string][]uint64{
		"payloads": {0xcbf29ce484222325, 0x594fd8365960b91d, 0xb83098cb469bb43f, 0x4d1bb5afa30b7577, 0xe526f881b7e073ab, 0x3369bc4dc9f64c1e},
		"lookups":  {0xcbf29ce484222325, 0x52bcd1f15c177a75, 0x04fbff18f95bbc0d, 0x7cb12cb041af3c15, 0xd2ee12fce783323f, 0x299016b59f2a1b5a},
		"uniform":  {0xcbf29ce484222325, 0xc0a79481f3e25cad, 0xd3328151f6a954b0, 0x71b0c51d7bd45712, 0x3f7c87ca0289f88a, 0xb9777408bce42881},
		"zipf":     {0xcbf29ce484222325, 0xa42b90ac27243c46, 0x55f8b810320d4a7f, 0xb132444da56d38ad, 0x9debe7e501d61a6c, 0xa4310ec73b2e2915},
		"inserts":  {0xcbf29ce484222325, 0x76cd7f15552ed145, 0x6fbfd3a0a19225be, 0xcb8bf91e720c336e, 0x8f6e36a38dc583f9, 0x27629d1c3a510a0c},
	}
	keys := MustGenerate(Amzn, 50_000, 1)
	got := map[string][]uint64{}
	for _, m := range streamSizes {
		for name, s := range streams(keys, m) {
			if len(s) != m {
				t.Fatalf("%s m=%d: %d items", name, m, len(s))
			}
			got[name] = append(got[name], Checksum(s))
		}
	}
	for name, sums := range got {
		if !slices.Equal(sums, golden[name]) {
			t.Errorf("%s: checksums at sizes %v\n%#016x, want\n%#016x", name, streamSizes, sums, golden[name])
		}
	}
}

// TestStreamsSameUnderGOMAXPROCS is the splittable generators' law: the
// CPU count decides how a stream or a key set is filled chunk-wise and
// never what is in it. Streams run at lengths that are one chunk and at
// one that is several; key sets at generatorSizes, where n = 1 and 200
// put face's outliers at half the set. ζ is compared as bits: its terms
// are computed chunk-parallel and must be added in index order.
func TestStreamsSameUnderGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	keys := MustGenerate(Amzn, 50_000, 1)
	zetaNs := []int{1, 2, 255, 50_000, 300_007}
	sizes := append(slices.Clone(streamSizes), 300_007)
	var want []map[string][]core.Key
	var wantZeta []float64
	wantSets := map[Name][][]core.Key{}
	runtime.GOMAXPROCS(1)
	for _, m := range sizes {
		want = append(want, streams(keys, m))
	}
	for _, n := range zetaNs {
		wantZeta = append(wantZeta, refZeta(n, 0.99))
	}
	for _, ds := range All() {
		for _, n := range generatorSizes {
			wantSets[ds] = append(wantSets[ds], MustGenerate(ds, n, 1))
		}
	}
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for i, m := range sizes {
			for name, s := range streams(keys, m) {
				if !slices.Equal(s, want[i][name]) {
					t.Errorf("GOMAXPROCS=%d %s m=%d: differs from GOMAXPROCS=1", procs, name, m)
				}
			}
		}
		for _, ds := range All() {
			for i, n := range generatorSizes {
				if !slices.Equal(MustGenerate(ds, n, 1), wantSets[ds][i]) {
					t.Errorf("GOMAXPROCS=%d %s n=%d: differs from GOMAXPROCS=1", procs, ds, n)
				}
			}
		}
		zetaMemo.Clear()
		for i, n := range zetaNs {
			if got := zeta(n, 0.99); math.Float64bits(got) != math.Float64bits(wantZeta[i]) {
				t.Errorf("GOMAXPROCS=%d zeta(%d, 0.99) = %v, the sequential sum is %v", procs, n, got, wantZeta[i])
			}
		}
	}
}

// refZeta is ζ(n, θ) as zeta computed it before its terms were
// chunk-parallel: one Pow after the other into one running sum.
func refZeta(n int, theta float64) float64 {
	var sum float64
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// refInsertKeys is the one-at-a-time loop InsertKeys was before it
// speculated a block of candidates at a time: the oracle for the draws
// each candidate consumes and for the order of the probes. slots counts
// at which slot of a block of 256 a candidate with a gap < 2 would fall
// — a block starts at the first candidate, after such a candidate, and
// after 256 candidates — so that a test can tell whether its key set
// reached the slots it means to.
func refInsertKeys(keys []core.Key, m int, seed uint64, slots *[256]int) []core.Key {
	r := newRNG(seed ^ 0x1453)
	seen := newU64Set(m)
	out := make([]core.Key, 0, m)
	slot := -1
	for len(out) < m {
		slot = (slot + 1) % 256
		i := r.intn(len(keys))
		var gap uint64
		if i+1 < len(keys) {
			gap = keys[i+1] - keys[i]
		} else {
			gap = 1 << 16 // past the max key: open-ended gap
		}
		if gap < 2 {
			slots[slot]++
			slot = -1
			continue
		}
		k := keys[i] + 1 + r.next()%(gap-1)
		if k < keys[i] {
			continue // wrapped past the top of the key space
		}
		if i+1 == len(keys) {
			// Only the open-ended last gap can reach a present key.
			if pos := core.LowerBound(keys, k); pos < len(keys) && keys[pos] == k {
				continue
			}
		}
		if seen.add(k) {
			out = append(out, k)
		}
	}
	return out
}

// denseEvery returns n sorted keys with gaps of 100 but for every
// period-th gap, which is 1: a candidate drawn there consumes one draw
// and not two.
func denseEvery(n, period int) []core.Key {
	keys := make([]core.Key, n)
	k := core.Key(1000)
	for i := range keys {
		keys[i] = k
		if i%period == period-1 {
			k++
		} else {
			k += 100
		}
	}
	return keys
}

// TestInsertKeysMatchesOneAtATime compares InsertKeys with the loop it
// replaces on key sets that force what the benchmark datasets almost
// never do: a candidate that takes one draw instead of the two its
// block assumed (at a block's first slot, at its last, and anywhere
// between), the open-ended last gap, a candidate that wraps past the
// top of the key space, and m reached in the middle of a block.
// Resuming the counter one draw late after a short gap differs from the
// first such gap on (wiki's repaired duplicates are enough); one draw
// early draws the same short gap again and never returns.
func TestInsertKeysMatchesOneAtATime(t *testing.T) {
	top := ^core.Key(0)
	cases := []struct {
		name string
		keys []core.Key
		m    int
		// wantSlots are block slots a gap < 2 must have hit.
		wantSlots []int
	}{
		{"amzn", MustGenerate(Amzn, 50_000, 1), 20_011, nil},
		{"wiki", MustGenerate(Wiki, 10_000, 11), 5_000, nil},
		// One gap in 256 is short: blocks mostly run to their last slots.
		{"dense 1/256", denseEvery(1<<16, 256), 600_000, []int{0, 1, 128, 254, 255}},
		// Every other gap is short: blocks end within a few slots.
		{"dense 1/2", denseEvery(4096, 2), 100_000, []int{0, 1, 2}},
		// All but one gap short: nearly every block ends at its first slot.
		{"one gap", append(denseEvery(64, 1), 2000), 500, []int{0}},
		// Two keys: half the candidates fall in the open-ended last gap.
		{"last gap", []core.Key{10, 20}, 9, nil},
		// The last gap runs past 2^64: most of its candidates wrap.
		{"top wrap", []core.Key{5, 1 << 40, top - 300, top - 200, top - 40}, 250, nil},
		{"top wrap dense", []core.Key{top - 5, top - 4, top - 3}, 1, []int{0}},
	}
	for _, c := range cases {
		for _, m := range []int{c.m, c.m / 2, 1, 0} {
			for seed := uint64(7); seed < 10; seed++ {
				var slots [256]int
				want := refInsertKeys(c.keys, m, seed, &slots)
				if got := InsertKeys(c.keys, m, seed); !slices.Equal(got, want) {
					i := 0
					for i < len(got) && i < len(want) && got[i] == want[i] {
						i++
					}
					t.Fatalf("%s m=%d seed=%d: %d keys, want %d; first difference at %d", c.name, m, seed, len(got), len(want), i)
				}
				if m != c.m || seed != 7 {
					continue
				}
				for _, s := range c.wantSlots {
					if slots[s] == 0 {
						t.Errorf("%s: no gap < 2 at block slot %d; the case does not test what it claims", c.name, s)
					}
				}
			}
		}
	}
}

// BenchmarkStreams prices the two streams load.MixedOps is made of and
// the ζ a process pays before its first zipfian one, at the benchmark's
// scale.
func BenchmarkStreams(b *testing.B) {
	keys := MustGenerate(Amzn, DefaultN, 1)
	b.Run("zeta", func(b *testing.B) {
		for b.Loop() {
			zetaMemo.Clear() // every process pays ζ once per key-set size
			zeta(len(keys), 0.99)
		}
	})
	b.Run("ZipfLookups", func(b *testing.B) {
		zeta(len(keys), 0.99) // priced above
		for b.Loop() {
			ZipfLookups(keys, 5_000_000, 0.99, 7)
		}
	})
	b.Run("InsertKeys", func(b *testing.B) {
		for b.Loop() {
			InsertKeys(keys, 1_250_000, 8)
		}
	})
}
