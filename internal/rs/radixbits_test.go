package rs

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/indextest"
)

// atBits is idx with its radix prefix at r bits and no table yet.
func atBits(idx *Index, keys []core.Key, r int) *Index {
	at := *idx
	at.cfg.RadixBits, at.lastBucket = r, 1<<r-1
	at.shift = uint(max(bits.Len64(keys[len(keys)-1]-keys[0])-r, 0))
	at.base, at.fine = nil, nil
	return &at
}

// refProbes counts the comparisons search.Rank makes in a window of
// width points, step by step.
func refProbes(width int) (n int) {
	if width == 0 {
		return 0
	}
	for ; width > 1; width -= width >> 1 {
		n++ // one halving
	}
	return n + 1
}

// refProbeTotal is the brute-force count: the exact r-bit table built
// as a histogram of point prefixes, then every key's window read from
// it the way segmentFor reads it, and its probes counted.
func refProbeTotal(idx *Index, keys []core.Key, r int) int {
	at := atBits(idx, keys, r)
	table := make([]int32, 1<<r+1)
	for _, k := range idx.keys {
		table[at.prefix(k)+1]++
	}
	for p := 1; p < len(table); p++ {
		table[p] += table[p-1]
	}
	s, total := idx.radixShift, 0
	for _, k := range keys {
		p := at.prefix(k)
		lo := int(table[p]) >> s << s
		hi := min(int(table[p+1])>>s<<s+(1<<s-1), len(idx.keys))
		if lo > 0 {
			lo--
		}
		total += refProbes(hi - lo)
	}
	return total
}

// TestRadixKeepsOnlyBitsThatSaveProbes holds New's radix rule to a
// brute-force reference on every dataset at the registry's mid rung and
// top rung: the kept bits search the keys in exactly as many probes as
// the configured bits, one bit fewer costs more, and every bound is
// the one the full configured table gives. A rule that stopped a bit
// early fails the second check, one that went a bit too far the first.
// On face the outliers above 2^59 hold the bulk in bucket 0 at 14 bits
// and below, so the mid rung's table shrinks there and the bulk stays
// in bucket 0.
func TestRadixKeepsOnlyBitsThatSaveProbes(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine rebuilding 2^22-entry tables; New's concurrent passes race in the other tests")
	}
	sizes := []int{50_000, 200_000}
	if !testing.Short() {
		sizes = append(sizes, 2_000_000)
	}
	for _, ds := range dataset.All() {
		for _, n := range sizes {
			keys := dataset.MustGenerate(ds, n, 1)
			probes := indextest.ProbesFor(keys)
			for _, cfg := range []Config{{SplineErr: 64, RadixBits: 14}, {SplineErr: 4, RadixBits: 22}} {
				idx, err := New(keys, cfg)
				if err != nil {
					t.Fatalf("%s n=%d %v: %v", ds, n, cfg, err)
				}
				r := idx.cfg.RadixBits
				what := fmt.Sprintf("%s n=%d %v kept r=%d (%d points)", ds, n, cfg, r, idx.NumPoints())
				t.Log(what)
				want := refProbeTotal(idx, keys, cfg.RadixBits)
				full := idx
				if r != cfg.RadixBits {
					if got := refProbeTotal(idx, keys, r); got != want {
						t.Errorf("%s: %d probes, %d at the configured r", what, got, want)
					}
					// The index New would have kept had it stored every
					// bit it was given.
					full = atBits(idx, keys, cfg.RadixBits)
					full.setRadix()
				}
				if r > 1 {
					if fewer := refProbeTotal(idx, keys, r-1); fewer <= want {
						t.Errorf("%s: r=%d costs %d probes, not more than %d", what, r-1, fewer, want)
					}
				}
				for _, x := range probes {
					if got, want := idx.Lookup(x), full.Lookup(x); got != want {
						t.Fatalf("%s: key %d bound %v, %v at the configured r", what, x, got, want)
					}
				}
				if ds == dataset.Face && cfg.RadixBits <= 14 {
					if r >= cfg.RadixBits {
						t.Errorf("%s: face keeps every configured bit", what)
					}
					if p := idx.prefix(keys[n/2]); p != 0 {
						t.Errorf("%s: the bulk left bucket 0 for bucket %d", what, p)
					}
				}
			}
		}
	}
}
