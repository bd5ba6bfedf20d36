package rs

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// refComputeMargins is the margin pass as it was before the cursor
// walk: every distinct key, and the next distinct key after it, routed
// through the radix table and the spline-point search exactly as Lookup
// routes a query. It is the oracle computeMargins must agree with.
func refComputeMargins(keys []core.Key, idx *Index) (errLo, errHi int) {
	errLo, errHi = idx.cfg.SplineErr+1, idx.cfg.SplineErr+1
	n := len(keys)
	for i := 0; i < n; {
		k := keys[i]
		j := i
		for j+1 < n && keys[j+1] == k {
			j++
		}
		nr := j + 1
		seg := idx.segmentFor(k, nil)
		pred := idx.interpolate(seg, k)
		if need := pred - i + 1; need > errLo {
			errLo = need
		}
		if need := nr - pred + 1; need > errHi {
			errHi = need
		}
		if j+1 < n {
			segG := idx.segmentFor(keys[j+1], nil)
			predG := idx.interpolate(segG, keys[j+1])
			if need := predG - nr + 1; need > errLo {
				errLo = need
			}
		}
		i = j + 1
	}
	return errLo, errHi
}

func checkMarginsAgainstRef(t *testing.T, what string, keys []core.Key) {
	t.Helper()
	for _, cfg := range []Config{{SplineErr: 1, RadixBits: 4}, {SplineErr: 8, RadixBits: 10}, {SplineErr: 64, RadixBits: 14}, {SplineErr: 256, RadixBits: 18}} {
		idx, err := New(keys, cfg)
		if err != nil {
			t.Fatalf("%s %v: %v", what, cfg, err)
		}
		lo, hi := refComputeMargins(keys, idx)
		if idx.errLo != lo || idx.errHi != hi {
			t.Errorf("%s %v: margins (%d, %d), routed reference (%d, %d)", what, cfg, idx.errLo, idx.errHi, lo, hi)
		}
	}
}

func TestMarginsMatchRoutedReference(t *testing.T) {
	sizes := []int{1_000, 50_000, 250_000}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, ds := range dataset.All() {
		for _, n := range sizes {
			checkMarginsAgainstRef(t, fmt.Sprintf("%s n=%d", ds, n), dataset.MustGenerate(ds, n, 3))
		}
	}

	// Face keeps its hundred outliers at every size; at 300 keys they are
	// a third of the data and most radix buckets are empty.
	checkMarginsAgainstRef(t, "face n=300", dataset.MustGenerate(dataset.Face, 300, 5))

	// Runs of duplicates far longer than any spline error, so the ranks
	// jump and the gap bound dominates.
	var dups []core.Key
	for v := core.Key(10); len(dups) < 20_000; v += 1 + v%7*1000 {
		for r := 0; r < 1+int(v%300); r++ {
			dups = append(dups, v)
		}
	}
	checkMarginsAgainstRef(t, "duplicate-heavy", dups)

	checkMarginsAgainstRef(t, "all equal", make([]core.Key, 5_000))
	checkMarginsAgainstRef(t, "single key", []core.Key{42})
	checkMarginsAgainstRef(t, "two keys", []core.Key{0, ^core.Key(0)})
}
