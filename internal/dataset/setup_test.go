package dataset

import (
	"slices"
	"testing"

	"repro/internal/core"
)

// refHilbertD2 is the Lam–Shapiro bit loop hilbertD2 used to be: one
// round of data-dependent branches per level. It is the oracle for the
// table-driven walk.
func refHilbertD2(order uint, x, y uint64) uint64 {
	var d uint64
	for s := uint64(1) << (order - 1); s > 0; s >>= 1 {
		var rx, ry uint64
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += s * s * ((3 * rx) ^ ry)
		// Rotate the quadrant so the curve remains continuous.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}

func TestHilbertMatchesBitLoop(t *testing.T) {
	for order := uint(1); order <= 6; order++ {
		for x := uint64(0); x < 1<<order; x++ {
			for y := uint64(0); y < 1<<order; y++ {
				if got, want := hilbertD2(order, x, y), refHilbertD2(order, x, y); got != want {
					t.Fatalf("order %d (%d,%d): %d, bit loop %d", order, x, y, got, want)
				}
			}
		}
	}
	// Every order once more on random points, with the bits above the
	// order left set: both walks ignore them.
	r := newRNG(17)
	for order := uint(1); order <= 32; order++ {
		m := 2_000
		if order == 24 || order == 32 {
			m = 100_000
		}
		for i := 0; i < m; i++ {
			x, y := r.next(), r.next()
			if i%2 == 0 {
				x, y = x&(1<<order-1), y&(1<<order-1)
			}
			if got, want := hilbertD2(order, x, y), refHilbertD2(order, x, y); got != want {
				t.Fatalf("order %d (%#x,%#x): %#x, bit loop %#x", order, x, y, got, want)
			}
		}
	}
}

func TestU64Set(t *testing.T) {
	s := newU64Set(8)
	for i, step := range []struct {
		k     uint64
		fresh bool
	}{{0, true}, {5, true}, {0, false}, {5, false}, {^uint64(0), true}, {1, true}, {^uint64(0), false}, {0, false}, {1, false}} {
		if got := s.add(step.k); got != step.fresh {
			t.Fatalf("step %d: add(%d) = %v, want %v", i, step.k, got, step.fresh)
		}
	}

	// A forced collision chain: values that all hash to one slot must
	// each be stored, found again, and leave the neighbours findable.
	s = newU64Set(64)
	home := func(k uint64) uint64 { return (k * 0x9E3779B97F4A7C15) >> s.shift }
	var chain []uint64
	for k := uint64(1); len(chain) < 20; k++ {
		if home(k) == 3 {
			chain = append(chain, k)
		}
	}
	for _, k := range chain {
		if !s.add(k) {
			t.Fatalf("collision chain: first add(%d) not fresh", k)
		}
	}
	for _, k := range chain {
		if s.add(k) {
			t.Fatalf("collision chain: add(%d) fresh twice", k)
		}
	}

	// Against a map, at exactly the load the set is sized for and with a
	// table wrap-around (values homed at the last slots).
	const n = 5_000
	s = newU64Set(n)
	ref := map[uint64]bool{}
	r := newRNG(9)
	for len(ref) < n {
		k := r.next() % (n * 2) // about a third repeats
		if len(ref)%7 == 0 {
			for home(k) < uint64(len(s.slots)-2) {
				k = r.next()
			}
		}
		if got, want := s.add(k), !ref[k]; got != want {
			t.Fatalf("add(%d) = %v with %d values in, map says %v", k, got, len(ref), want)
		}
		ref[k] = true
	}
	if 2*n > len(s.slots) {
		t.Errorf("%d slots for %d values: load above one half", len(s.slots), n)
	}
}

func TestSortKeysMatchesSlicesSort(t *testing.T) {
	r := newRNG(23)
	draw := func(n int, f func() core.Key) []core.Key {
		keys := make([]core.Key, n)
		for i := range keys {
			keys[i] = f()
		}
		return keys
	}
	cases := map[string][]core.Key{
		"empty":  {},
		"one":    {7},
		"two":    {9, 3},
		"random": draw(10_000, r.next),
		// Only bytes 1 and 2 vary: six of the eight passes are skipped.
		"constant high and low bytes": draw(10_000, func() core.Key { return 0xAB00_0000_0000_00CD | r.next()&0xFFFF00 }),
		"48-bit with repeats":         draw(10_000, func() core.Key { return r.next() % 3_000 << 35 }),
		"all equal":                   draw(1_000, func() core.Key { return 1 << 40 }),
		"already sorted":              MustGenerate(Wiki, 5_000, 2),
		"face":                        append(MustGenerate(Face, 5_000, 2), 3, 2, 1),
	}
	for name, keys := range cases {
		want := slices.Clone(keys)
		slices.Sort(want)
		sortKeys(keys)
		if !slices.Equal(keys, want) {
			t.Errorf("%s: sortKeys differs from slices.Sort", name)
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	for _, ds := range All() {
		b.Run(string(ds), func(b *testing.B) {
			for b.Loop() {
				MustGenerate(ds, DefaultN, 1)
			}
		})
	}
}
