package core

import (
	"math/rand/v2"
	"testing"
)

// TestMarginCode holds the 16-bit margin code to its contract over every
// v below 2¹⁶ and a seeded sample up to 2³¹−1: the decoded margin is
// never narrower than v, exact below 2,048, at most v + v>>10, and code
// and value both grow with v, so widening by the max of codes is
// widening by the max of margins. The RMI leaf codes its margins so,
// and PGM's data segments their excess over eps+1.
func TestMarginCode(t *testing.T) {
	vs := []int{1<<31 - 1, 1<<31 - 2, 1 << 30, 1<<30 + 1}
	for v := range 1 << 16 {
		vs = append(vs, v)
	}
	rng := rand.New(rand.NewPCG(43, 0))
	for range 1 << 16 {
		vs = append(vs, rng.IntN(1<<31))
	}
	for _, v := range vs {
		m := ToMargin(v)
		got := m.Value()
		if got < v || (v < 2048 && got != v) || got > v+v>>10 {
			t.Fatalf("margin %d codes as %#x, decoded %d", v, uint16(m), got)
		}
		if prev := ToMargin(v - 1); v > 0 && (prev > m || prev.Value() > got) {
			t.Fatalf("margin %d codes as %#x (%d), %d as %#x (%d)", v, uint16(m), got, v-1, uint16(prev), prev.Value())
		}
	}
	if m := ToMargin(-5); m != 0 || m.Value() != 0 {
		t.Errorf("margin -5 codes as %#x, want 0", uint16(m))
	}
	// PGM codes a margin's excess over a floor of eps+1: at every rung
	// of its ladder, every margin from the floor to floor+2,047 comes
	// back exact, eps = 4096 included, and one below the floor comes
	// back as the floor.
	for _, eps := range []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096} {
		floor := eps + 1
		for v := 0; v < floor+2048; v++ {
			if got := floor + ToMargin(v-floor).Value(); got != max(v, floor) {
				t.Fatalf("eps=%d: margin %d decodes to %d over the floor, want %d", eps, v, got, max(v, floor))
			}
		}
	}
}
