package rs_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/rs"
)

// TestRadixTableLossless holds the two-level radix table of every RS
// rung of the registry's sweep, on every dataset at 200k keys and the
// mid rung on amzn at 2M (skipped by -short), to the exact table: the
// lookup reads exactly the 16-bit entries a one-level table would hold.
// It lives in the external test package because registry imports rs.
func TestRadixTableLossless(t *testing.T) {
	type run struct {
		ds    dataset.Name
		n     int
		label string // "" for every rung
	}
	runs := []run{}
	for _, ds := range dataset.All() {
		runs = append(runs, run{ds, 200_000, ""})
	}
	if !testing.Short() {
		runs = append(runs, run{dataset.Amzn, 2_000_000, "eps=64,r=14"})
	}
	for _, c := range runs {
		keys := dataset.MustGenerate(c.ds, c.n, 1)
		checked := 0
		for _, nb := range registry.Sweep("RS", keys) {
			if c.label != "" && nb.Label != c.label {
				continue
			}
			idx, err := nb.Builder.Build(keys)
			if err != nil {
				t.Fatalf("%s n=%d %s: %v", c.ds, c.n, nb.Label, err)
			}
			if err := rs.CheckRadix(idx.(*rs.Index)); err != nil {
				t.Errorf("%s n=%d %s: %v", c.ds, c.n, nb.Label, err)
			}
			checked++
		}
		if checked == 0 {
			t.Errorf("%s n=%d: no rung labelled %q", c.ds, c.n, c.label)
		}
	}
}
