package search

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func sortedKeys(rng *rand.Rand, n int, maxVal int) []core.Key {
	keys := make([]core.Key, n)
	for i := range keys {
		keys[i] = core.Key(rng.Intn(maxVal))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// validBoundFor builds a random valid bound around the lower bound of x.
func validBoundFor(rng *rand.Rand, keys []core.Key, x core.Key) core.Bound {
	n := len(keys)
	lb := core.LowerBound(keys, x)
	if lb == n {
		lo := rng.Intn(n + 1)
		return core.Bound{Lo: lo, Hi: n}
	}
	lo := lb - rng.Intn(lb+1)
	hi := lb + 1 + rng.Intn(n-lb)
	return core.Bound{Lo: lo, Hi: hi}
}

func TestSearchFnsAgreeWithLowerBound(t *testing.T) {
	fns := map[string]Fn{
		"binary":        BinarySearch,
		"linear":        linearSearch,
		"interpolation": interpolationSearch,
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		keys := sortedKeys(rng, n, 1000)
		for q := 0; q < 30; q++ {
			x := core.Key(rng.Intn(1200))
			want := core.LowerBound(keys, x)
			b := validBoundFor(rng, keys, x)
			for name, fn := range fns {
				if got := fn(keys, x, b); got != want {
					t.Fatalf("%s: search(%d, %v) = %d, want %d (keys[%d..%d]=%v)",
						name, x, b, got, want, b.Lo, b.Hi, keys[b.Lo:b.Hi])
				}
			}
		}
	}
}

func TestSearchFullBound(t *testing.T) {
	keys := []core.Key{1, 3, 9, 12, 56, 57, 58, 95, 98, 99}
	b := core.FullBound(len(keys))
	for _, fn := range []Fn{BinarySearch, linearSearch, interpolationSearch} {
		if got := fn(keys, 72, b); got != 7 {
			t.Errorf("search(72) = %d, want 7", got)
		}
		if got := fn(keys, 1, b); got != 0 {
			t.Errorf("search(1) = %d, want 0", got)
		}
		if got := fn(keys, 1000, b); got != len(keys) {
			t.Errorf("search(1000) = %d, want %d", got, len(keys))
		}
	}
}

func TestSearchEmptyBound(t *testing.T) {
	keys := []core.Key{10, 20, 30}
	b := core.Bound{Lo: 3, Hi: 3} // overflow-key case: lb == n
	for _, fn := range []Fn{BinarySearch, linearSearch, interpolationSearch} {
		if got := fn(keys, 99, b); got != 3 {
			t.Errorf("search on empty bound = %d, want 3", got)
		}
	}
}

func TestSearchSingleElementBound(t *testing.T) {
	keys := []core.Key{10, 20, 30}
	b := core.Bound{Lo: 1, Hi: 2}
	for _, fn := range []Fn{BinarySearch, linearSearch, interpolationSearch} {
		if got := fn(keys, 15, b); got != 1 {
			t.Errorf("search(15) = %d, want 1", got)
		}
		if got := fn(keys, 20, b); got != 1 {
			t.Errorf("search(20) = %d, want 1", got)
		}
	}
}

func TestSearchAllDuplicates(t *testing.T) {
	keys := []core.Key{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}
	b := core.FullBound(len(keys))
	for _, fn := range []Fn{BinarySearch, linearSearch, interpolationSearch} {
		if got := fn(keys, 7, b); got != 0 {
			t.Errorf("search(7) over dups = %d, want 0", got)
		}
		if got := fn(keys, 6, b); got != 0 {
			t.Errorf("search(6) over dups = %d, want 0", got)
		}
	}
	// A key greater than all duplicates has lb == n; validity requires Hi == n.
	for _, fn := range []Fn{BinarySearch, linearSearch, interpolationSearch} {
		if got := fn(keys, 8, b); got != len(keys) {
			t.Errorf("search(8) over dups = %d, want %d", got, len(keys))
		}
	}
}

func TestInterpolationExtremeSkew(t *testing.T) {
	// Outlier-heavy data like the face dataset: interpolation probes pile
	// up at one end; the probe cap must still terminate correctly.
	keys := make([]core.Key, 1000)
	for i := 0; i < 999; i++ {
		keys[i] = core.Key(i)
	}
	keys[999] = ^core.Key(0) // one huge outlier
	b := core.FullBound(len(keys))
	for x := core.Key(0); x < 999; x += 7 {
		want := core.LowerBound(keys, x)
		if got := interpolationSearch(keys, x, b); got != want {
			t.Fatalf("interpolation(%d) = %d, want %d", x, got, want)
		}
	}
	if got := interpolationSearch(keys, ^core.Key(0), b); got != 999 {
		t.Errorf("interpolation(max) = %d, want 999", got)
	}
}

func TestBinarySteps(t *testing.T) {
	cases := []struct{ width, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{128, 7}, {129, 8}, {1 << 20, 20},
	}
	for _, tc := range cases {
		if got := BinarySteps(tc.width); got != tc.want {
			t.Errorf("BinarySteps(%d) = %d, want %d", tc.width, got, tc.want)
		}
	}
}

func TestKindString(t *testing.T) {
	if Binary.String() != "binary" || Linear.String() != "linear" || Interpolation.String() != "interpolation" {
		t.Error("Kind.String mismatch")
	}
	if Kind(99).String() != "unknown" {
		t.Error("unknown kind")
	}
}

func TestByKind(t *testing.T) {
	keys := []core.Key{1, 5, 9}
	for _, k := range []Kind{Binary, Linear, Interpolation, Kind(42)} {
		fn := ByKind(k)
		if got := fn(keys, 5, core.FullBound(3)); got != 1 {
			t.Errorf("ByKind(%v)(5) = %d, want 1", k, got)
		}
	}
}

// Property test: all search functions agree with core.LowerBound on the
// full bound for arbitrary sorted inputs.
func TestSearchProperty(t *testing.T) {
	f := func(raw []uint64, x uint64) bool {
		keys := make([]core.Key, len(raw))
		copy(keys, raw)
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		b := core.FullBound(len(keys))
		want := core.LowerBound(keys, x)
		return BinarySearch(keys, x, b) == want &&
			linearSearch(keys, x, b) == want &&
			interpolationSearch(keys, x, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
