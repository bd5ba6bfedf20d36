package core

import (
	"math/rand/v2"
	"testing"
)

// TestMarginCode holds the one-byte margin code to its contract over
// every v below 2²⁰ and a seeded sample up to 2³¹−1: the decoded margin
// is never narrower than v, exact below 32, at most v + v/8, and code
// and value both grow with v, so widening by the max of codes is
// widening by the max of margins. Every code decodes to a margin above
// the code before it, and each one ToMargin returns comes back from its
// own value. The RMI knot leaf codes its margins so, and PGM's data
// segments their excess over eps+1.
func TestMarginCode(t *testing.T) {
	vs := []int{1<<31 - 1, 1<<31 - 2, 1 << 30, 1<<30 + 1}
	for v := range 1 << 20 {
		vs = append(vs, v)
	}
	rng := rand.New(rand.NewPCG(43, 0))
	for range 1 << 16 {
		vs = append(vs, rng.IntN(1<<31))
	}
	for _, v := range vs {
		m := ToMargin(v)
		got := m.Value()
		if got < v || (v < 32 && got != v) || got > v+v/8 {
			t.Fatalf("margin %d codes as %#x, decoded %d", v, uint8(m), got)
		}
		if prev := ToMargin(v - 1); v > 0 && (prev > m || prev.Value() > got) {
			t.Fatalf("margin %d codes as %#x (%d), %d as %#x (%d)", v, uint8(m), got, v-1, uint8(prev), prev.Value())
		}
	}
	if m := ToMargin(-5); m != 0 || m.Value() != 0 {
		t.Errorf("margin -5 codes as %#x, want 0", uint8(m))
	}
	top := ToMargin(1<<31 - 1)
	for c := range 256 {
		m := Margin(c)
		if c > 0 && m.Value() <= Margin(c-1).Value() {
			t.Fatalf("code %#x decodes to %d, code %#x to %d", c, m.Value(), c-1, Margin(c-1).Value())
		}
		if m <= top && ToMargin(m.Value()) != m {
			t.Fatalf("code %#x decodes to %d, which codes as %#x", c, m.Value(), uint8(ToMargin(m.Value())))
		}
	}
	// PGM codes a margin's excess over a floor of eps+1: at every rung
	// of its ladder, every margin from the floor to floor+31 comes back
	// exact, and one below the floor comes back as the floor.
	for _, eps := range []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096} {
		floor := eps + 1
		for v := 0; v < floor+32; v++ {
			if got := floor + ToMargin(v-floor).Value(); got != max(v, floor) {
				t.Fatalf("eps=%d: margin %d decodes to %d over the floor, want %d", eps, v, got, max(v, floor))
			}
		}
	}
}
