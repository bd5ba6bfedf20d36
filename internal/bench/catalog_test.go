package bench

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/report"
	"repro/internal/stats"
)

// expectedExperiments is the full catalog: the paper's 17 artifacts
// plus the four serving-layer experiments. A new experiment must be
// added here (and to the sosd doc comment, which has its own guard).
var expectedExperiments = []string{
	"table1", "fig6", "fig7", "fig8", "table2", "fig9", "fig10",
	"fig11", "fig12", "regress", "fig13", "fig14", "fig15",
	"fig16a", "fig16b", "fig16c", "fig17",
	"persist", "serve-lsm", "serve-obs", "serve-repl",
}

func TestCatalogComplete(t *testing.T) {
	exps := Experiments()
	if len(exps) != len(expectedExperiments) {
		t.Errorf("catalog has %d experiments, want %d", len(exps), len(expectedExperiments))
	}
	for _, name := range expectedExperiments {
		exp, ok := Find(name)
		if !ok {
			t.Errorf("experiment %q not registered", name)
			continue
		}
		if exp.Name != name || exp.Desc == "" || exp.Run == nil {
			t.Errorf("experiment %q incompletely registered: %+v", name, exp)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find returned an unregistered experiment")
	}
}

func TestRegisterRejectsBadEntries(t *testing.T) {
	mustPanic := func(name string, e Experiment) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: register did not panic", name)
			}
		}()
		register(e)
	}
	mustPanic("duplicate", Experiment{Name: "fig7", Desc: "dup", Run: fig7})
	mustPanic("nil run", Experiment{Name: "new", Desc: "x"})
	mustPanic("unnamed", Experiment{Desc: "x", Run: fig7})
}

// TestSeedZeroHonored pins the Options contract: an explicit seed of 0
// must survive defaulting (the CLI owns the 42 default, not the
// library — see DefaultSeed).
func TestSeedZeroHonored(t *testing.T) {
	o := Options{N: 100, Lookups: 10, Seed: 0}.withDefaults()
	if o.Seed != 0 {
		t.Errorf("Seed 0 was coerced to %d", o.Seed)
	}
	r := NewRun(Options{N: 100, Lookups: 10})
	if r.options.Seed != 0 {
		t.Errorf("NewRun coerced seed to %d", r.options.Seed)
	}
	e0, err := r.env(dataset.Amzn)
	if err != nil {
		t.Fatal(err)
	}
	e42, err := NewEnv(dataset.Amzn, 100, 10, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if keysChecksum(e0.Keys) == keysChecksum(e42.Keys) {
		t.Error("seed 0 produced the same dataset as seed 42: the old coercion is back")
	}
}

func TestRunRecordsChecksums(t *testing.T) {
	r := NewRun(Options{N: 200, Lookups: 20, Seed: 7})
	if _, err := r.env(dataset.Amzn); err != nil {
		t.Fatal(err)
	}
	if _, err := r.envAt(dataset.OSM, 400, 20); err != nil {
		t.Fatal(err)
	}
	sums := r.DatasetChecksums()
	if len(sums) != 2 {
		t.Fatalf("recorded %d checksums, want 2: %v", len(sums), sums)
	}
	if _, ok := sums["amzn/n=200/seed=7"]; !ok {
		t.Errorf("missing amzn checksum key: %v", sums)
	}
	if _, ok := sums["osm/n=400/seed=7"]; !ok {
		t.Errorf("missing osm checksum key: %v", sums)
	}
}

// TestRegressRows covers the regress experiment's table construction
// without paying for its 2M-key floor: one term row per predictor
// (coefficients skip the intercept) plus the fit-summary note.
func TestRegressRows(t *testing.T) {
	tb := report.New("regress", "t").Dims("model", "term").
		Float("coef", "", 4).Float("std", "beta", 3).Float("p", "", 4)
	reg := &stats.Regression{
		Names:   []string{"cache_misses", "instructions"},
		Coef:    []float64{10, 1.5, 2.5}, // intercept first
		StdCoef: []float64{0.5, 0.6},
		PValues: []float64{0.01, 0.02},
		R2:      0.9, N: 12, DF: 9,
	}
	regressRows(tb, "counters", reg)
	if len(tb.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(tb.Rows))
	}
	if tb.Rows[0].Dims[1] != "cache_misses" || tb.Rows[0].Metrics[0] != 1.5 {
		t.Errorf("first term row wrong: %+v", tb.Rows[0])
	}
	if tb.Rows[1].Dims[1] != "instructions" || tb.Rows[1].Metrics[0] != 2.5 {
		t.Errorf("second term row wrong: %+v", tb.Rows[1])
	}
	if len(tb.Notes) != 1 || !strings.Contains(tb.Notes[0], "R²=0.900") {
		t.Errorf("fit summary note missing: %v", tb.Notes)
	}
	if err := tb.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFilters(t *testing.T) {
	r := NewRun(Options{N: 100, Lookups: 10, Families: []string{"PGM", "RMI"}, Datasets: []string{"osm"}})
	got := r.families([]string{"RMI", "PGM", "RS", "BTree"})
	if len(got) != 2 || got[0] != "RMI" || got[1] != "PGM" {
		t.Errorf("Families filter = %v", got)
	}
	if r.familyAllowed("BTree") || !r.familyAllowed("RMI") {
		t.Error("familyAllowed disagrees with filter")
	}
	ds := r.datasets(dataset.All())
	if len(ds) != 1 || ds[0] != dataset.OSM {
		t.Errorf("Datasets filter = %v", ds)
	}

	open := NewRun(Options{N: 100, Lookups: 10})
	if got := open.families([]string{"A", "B"}); len(got) != 2 {
		t.Errorf("unfiltered Families = %v", got)
	}
	if got := open.datasets(dataset.All()); len(got) != len(dataset.All()) {
		t.Errorf("unfiltered Datasets = %v", got)
	}
}
