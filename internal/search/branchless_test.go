package search

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
)

// allFns names every last-mile search implementation, old and new; the
// property suite holds each of them to the sort.Search oracle.
func allFns() map[string]Fn {
	return map[string]Fn{
		"binary":        BinarySearch,
		"linear":        linearSearch,
		"interpolation": interpolationSearch,
		"branchless":    BranchlessSearch,
	}
}

// oracle is the reference answer: sort.Search restricted to the bound,
// exactly the formulation the branchless implementations replace.
func oracle(keys []core.Key, x core.Key, b core.Bound) int {
	return b.Lo + sort.Search(b.Hi-b.Lo, func(i int) bool { return keys[b.Lo+i] >= x })
}

// checkAll runs every implementation on one (keys, x, bound) case.
func checkAll(t *testing.T, keys []core.Key, x core.Key, b core.Bound) {
	t.Helper()
	want := oracle(keys, x, b)
	for name, fn := range allFns() {
		if got := fn(keys, x, b); got != want {
			t.Fatalf("%s: search(%d, %v) = %d, want %d (n=%d)", name, x, b, got, want, len(keys))
		}
	}
}

// TestSearchAgainstOracle sweeps the satellite checklist cases: empty
// bounds, width-1 bounds, full-array bounds, duplicate keys, and keys
// below/above the bound, for many sizes including non-powers of two.
func TestSearchAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(200)
		maxVal := 2 + rng.Intn(500) // small ranges force duplicate runs
		keys := sortedKeys(rng, n, maxVal)

		// Full-array bound, random keys (present, absent, extremes).
		full := core.FullBound(n)
		checkAll(t, keys, core.Key(rng.Intn(maxVal+50)), full)
		checkAll(t, keys, 0, full)
		checkAll(t, keys, keys[0], full)
		checkAll(t, keys, keys[n-1], full)
		checkAll(t, keys, keys[n-1]+1, full)
		checkAll(t, keys, ^core.Key(0), full)

		// Valid random bounds around a random key's lower bound.
		for q := 0; q < 20; q++ {
			x := core.Key(rng.Intn(maxVal + 50))
			checkAll(t, keys, x, validBoundFor(rng, keys, x))
		}

		// Width-1 bounds at every position where they are valid.
		for pos := 0; pos < n; pos++ {
			checkAll(t, keys, keys[pos], core.Bound{Lo: pos, Hi: pos + 1})
		}

		// Key below the bound: the bound starts exactly at the lower
		// bound, so every in-bound key is >= x.
		x := keys[n/2]
		lb := core.LowerBound(keys, x)
		checkAll(t, keys, x, core.Bound{Lo: lb, Hi: n})

		// Key above the bound: lb == n, represented as Hi == n.
		above := keys[n-1] + 1
		if above != 0 { // skip on wrap
			checkAll(t, keys, above, core.Bound{Lo: rng.Intn(n + 1), Hi: n})
			checkAll(t, keys, above, core.Bound{Lo: n, Hi: n}) // empty bound
		}
	}
}

// TestSearchBatch holds the pipelined batch path — NarrowBatch's probe
// rounds, then the branchless ladder over each narrowed bound — to the
// scalar oracle over whole random batches, including bounds of every
// width class.
func TestSearchBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(3000)
		keys := sortedKeys(rng, n, 4*n+2)
		m := 1 + rng.Intn(700)
		qs := make([]core.Key, m)
		bs := make([]core.Bound, m)
		want := make([]int, m)
		for i := range qs {
			qs[i] = core.Key(rng.Intn(4*n + 100))
			bs[i] = validBoundFor(rng, keys, qs[i])
			want[i] = oracle(keys, qs[i], bs[i])
		}
		NarrowBatch(keys, qs, bs)
		for i, x := range qs {
			if got := BranchlessSearch(keys, x, bs[i]); got != want[i] {
				t.Fatalf("batch[%d]: search(%d) = %d, want %d", i, x, got, want[i])
			}
		}
	}
}

// TestNarrowBatch checks that the probe rounds preserve bound validity
// and narrow every bound to the stop width.
func TestNarrowBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 5000
	keys := sortedKeys(rng, n, 3*n)
	m := 300
	qs := make([]core.Key, m)
	bs := make([]core.Bound, m)
	for i := range qs {
		qs[i] = core.Key(rng.Intn(3*n + 100))
		bs[i] = validBoundFor(rng, keys, qs[i])
	}
	// Narrowed bounds take the closed form Lo <= lb <= Hi (the
	// intermediate-state invariant of binary search); every Fn must
	// still resolve them to the exact lower bound.
	contains := func(keys []core.Key, x core.Key, b core.Bound) bool {
		lb := core.LowerBound(keys, x)
		return b.Lo <= lb && lb <= b.Hi
	}
	// The rounds must reach the stop width everywhere, and every scalar
	// Fn must finish the narrowed bounds to the exact answer.
	NarrowBatch(keys, qs, bs)
	for i := range bs {
		if !contains(keys, qs[i], bs[i]) {
			t.Fatalf("narrowed bound %d lost its key: %v for key %d", i, bs[i], qs[i])
		}
		if bs[i].Width() > 8 {
			t.Fatalf("bound %d not narrowed: width %d", i, bs[i].Width())
		}
		want := core.LowerBound(keys, qs[i])
		for name, fn := range allFns() {
			if got := fn(keys, qs[i], bs[i]); got != want {
				t.Fatalf("%s on narrowed bound %v: search(%d) = %d, want %d", name, bs[i], qs[i], got, want)
			}
		}
	}
}

// FuzzSearch feeds arbitrary key material and a query through every
// implementation and the batch path, checking them against sort.Search
// on the full bound and on a derived valid sub-bound.
func FuzzSearch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint64(5), uint8(3))
	f.Add([]byte{}, uint64(0), uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1}, ^uint64(0), uint8(255))
	f.Fuzz(func(t *testing.T, raw []byte, q uint64, span uint8) {
		if len(raw) < 1 {
			return
		}
		keys := make([]core.Key, 0, len(raw))
		acc := core.Key(0)
		for _, c := range raw {
			acc += core.Key(c) // non-decreasing by construction, dup-heavy
			keys = append(keys, acc)
		}
		n := len(keys)
		x := core.Key(q)
		full := core.FullBound(n)
		want := oracle(keys, x, full)
		for name, fn := range allFns() {
			if got := fn(keys, x, full); got != want {
				t.Fatalf("%s: full-bound search(%d) = %d, want %d", name, x, got, want)
			}
		}
		// A derived valid sub-bound around the lower bound.
		lo := want - int(span)
		if lo < 0 {
			lo = 0
		}
		hi := want + 1 + int(span)
		if hi > n || want == n {
			hi = n
		}
		sub := core.Bound{Lo: lo, Hi: hi}
		for name, fn := range allFns() {
			if got := fn(keys, x, sub); got != want {
				t.Fatalf("%s: sub-bound %v search(%d) = %d, want %d", name, sub, x, got, want)
			}
		}
	})
}
