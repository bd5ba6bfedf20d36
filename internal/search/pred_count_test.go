//go:build probecount

package search

import (
	"slices"
	"testing"

	"repro/internal/core"
)

// TestProbesCountsComparisons logs the keys both forms of the ladder
// compare, through the logging atMost of a -tags probecount build, for
// every window width 0..1024 at several offsets and for x below, inside
// and above the window, and holds the log to Replay's slots and outcomes,
// slot for slot and in order, and its length to Probes.
func TestProbesCountsComparisons(t *testing.T) {
	keys := make([]core.Key, 1000+1024)
	for i := range keys {
		keys[i] = 2*core.Key(i) + 2
	}
	var want []uint64
	for _, lo := range predOffsets {
		for width := 0; width <= 1024; width++ {
			hi := lo + width
			for _, x := range []core.Key{0, keys[lo] + 1, keys[lo+width/2] + 1, keys[max(hi-1, 0)], ^core.Key(0)} {
				for name, rank := range rankForms[core.Key]() {
					compared = compared[:0]
					r := rank(keys, x, lo, hi)
					want = want[:0]
					Replay(lo, hi, r, func(slot int, le bool) {
						if le != (keys[slot] <= x) {
							t.Fatalf("%s(x=%d, [%d, %d)): Replay says key %d <= x is %v", name, x, lo, hi, keys[slot], le)
						}
						want = append(want, uint64(keys[slot]))
					})
					if !slices.Equal(compared, want) {
						t.Fatalf("%s(x=%d, [%d, %d)) compared keys %v, Replay names %v", name, x, lo, hi, compared, want)
					}
					if len(compared) != Probes(width) {
						t.Fatalf("%s(x=%d, [%d, %d)) compared %d keys, Probes(%d) = %d", name, x, lo, hi, len(compared), width, Probes(width))
					}
				}
			}
		}
	}
}
