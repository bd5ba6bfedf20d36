package pgm

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// refComputeDataMargins is the margin pass as it was before predictions
// were carried from one key to the next: every distinct key evaluated
// twice, once as itself and once as the top of the gap below it. It is
// the oracle computeDataMargins must agree with, once coded, and lays
// its margins out as Index.margins does: segment j's lower at 2j, its
// upper at 2j+1.
func refComputeDataMargins(keys []core.Key, l *level, eps int) []int32 {
	n, m := len(keys), len(l.keys)
	margins := make([]int32, 2*m)
	for i := range margins {
		margins[i] = int32(eps + 1)
	}
	si := 0
	for i := 0; i < n; {
		k := keys[i]
		j := i
		for j+1 < n && keys[j+1] == k {
			j++
		}
		nr := j + 1
		for si+1 < m && l.keys[si+1] <= k {
			si++
		}
		nextPos := n
		if si+1 < m {
			nextPos = int(l.pos[si+1])
		}
		pred := l.predict(si, nextPos, k)
		if need := int32(pred - i + 1); need > margins[2*si] {
			margins[2*si] = need
		}
		if need := int32(nr - pred + 1); need > margins[2*si+1] {
			margins[2*si+1] = need
		}
		if j+1 < n {
			predGap := l.predict(si, nextPos, keys[j+1])
			if need := int32(predGap - nr + 1); need > margins[2*si] {
				margins[2*si] = need
			}
		}
		i = j + 1
	}
	return margins
}

func checkMarginsAgainstRef(t *testing.T, what string, keys []core.Key) {
	t.Helper()
	for _, eps := range []int{1, 8, 64, 512} {
		idx, err := New(keys, eps)
		if err != nil {
			t.Fatalf("%s eps=%d: %v", what, eps, err)
		}
		ref := refComputeDataMargins(keys, &idx.levels[0], eps)
		want := make([]core.Margin, len(ref))
		for i, v := range ref {
			want[i] = core.ToMargin(int(v) - eps - 1)
		}
		if !slices.Equal(idx.margins, want) {
			t.Errorf("%s eps=%d: margins over %d segments differ from the two-evaluation reference", what, eps, len(want)/2)
		}
	}
}

func TestDataMarginsMatchReference(t *testing.T) {
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
	// a third of the data.
	checkMarginsAgainstRef(t, "face n=300", dataset.MustGenerate(dataset.Face, 300, 5))

	// Runs of duplicates far longer than any epsilon, so the ranks jump
	// and the gap bound dominates.
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
