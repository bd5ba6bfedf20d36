//go:build probecount

package search

import (
	"testing"

	"repro/internal/core"
)

// TestProbesCountsComparisons counts the comparisons both kernel forms
// make, through the counting atMost of a -tags probecount build, for
// every window width 0..1024 at several offsets and for x below, inside
// and above the window, and holds each count to Probes.
func TestProbesCountsComparisons(t *testing.T) {
	keys := make([]core.Key, 1000+1024)
	for i := range keys {
		keys[i] = 2*core.Key(i) + 2
	}
	for _, lo := range predOffsets {
		for width := 0; width <= 1024; width++ {
			hi := lo + width
			for _, x := range []core.Key{0, keys[lo] + 1, keys[lo+width/2] + 1, keys[max(hi-1, 0)], ^core.Key(0)} {
				for name, pred := range predForms {
					compared = 0
					pred(keys, x, lo, hi)
					if compared != Probes(width) {
						t.Fatalf("%s(x=%d, [%d, %d)) compared %d keys, Probes(%d) = %d", name, x, lo, hi, compared, width, Probes(width))
					}
				}
			}
		}
	}
}
