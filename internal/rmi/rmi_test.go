package rmi

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

func allConfigs() []Config {
	var cfgs []Config
	for _, s1 := range []ModelKind{ModelLinear, ModelLinearSpline, modelRadix} {
		for _, s2 := range []ModelKind{ModelLinear, ModelLinearSpline, modelRadix, modelKnot} {
			for _, b := range []int{1, 16, 256, 4096} {
				cfgs = append(cfgs, Config{Stage1: s1, Stage2: s2, Branch: b})
			}
		}
	}
	return cfgs
}

func checkValidity(t *testing.T, idx core.Index, keys []core.Key, probes []core.Key) {
	t.Helper()
	for _, x := range probes {
		b := idx.Lookup(x)
		if !core.ValidBound(keys, x, b) {
			t.Fatalf("%s: invalid bound %v for key %d (lb=%d)", idx.Name(), b, x, core.LowerBound(keys, x))
		}
	}
}

// probesFor builds a thorough probe set: every key, absent neighbours,
// and extremes.
func probesFor(keys []core.Key) []core.Key {
	probes := make([]core.Key, 0, 3*len(keys)+4)
	for _, k := range keys {
		probes = append(probes, k)
		probes = append(probes, k+1)
		if k > 0 {
			probes = append(probes, k-1)
		}
	}
	probes = append(probes, 0, 1, ^core.Key(0), ^core.Key(0)-1)
	return probes
}

func TestRMIValidityAllConfigsAllDatasets(t *testing.T) {
	for _, name := range dataset.All() {
		keys := dataset.MustGenerate(name, 5000, 1)
		probes := probesFor(keys)
		for _, cfg := range allConfigs() {
			idx, err := New(keys, cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", name, cfg, err)
			}
			checkValidity(t, idx, keys, probes)
		}
	}
}

func TestRMIExactOnLinearData(t *testing.T) {
	// Perfectly linear data must yield near-zero error: width <= 3
	// (the ±1 absent-key widening).
	keys := make([]core.Key, 1000)
	for i := range keys {
		keys[i] = core.Key(1000 + 10*i)
	}
	idx, err := New(keys, Config{Stage1: ModelLinear, Stage2: ModelLinear, Branch: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		b := idx.Lookup(k)
		if b.Width() > 3 {
			t.Fatalf("bound %v too wide for linear data at key %d", b, k)
		}
		if b.Lo > i || i >= b.Hi {
			t.Fatalf("bound %v misses position %d", b, i)
		}
	}
}

func TestRMIEmptyKeys(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("expected error for empty keys")
	}
}

func TestRMISingleKey(t *testing.T) {
	keys := []core.Key{42}
	idx, err := New(keys, Config{Stage1: ModelLinear, Stage2: ModelLinear, Branch: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkValidity(t, idx, keys, []core.Key{0, 41, 42, 43, ^core.Key(0)})
}

func TestRMIDuplicateKeys(t *testing.T) {
	keys := []core.Key{5, 5, 5, 10, 10, 20, 20, 20, 20, 30}
	idx, err := New(keys, Config{Stage1: ModelLinear, Stage2: ModelLinear, Branch: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkValidity(t, idx, keys, probesFor(keys))
}

func TestRMIBranchClamping(t *testing.T) {
	keys := []core.Key{1, 2, 3}
	idx, err := New(keys, Config{Stage1: ModelLinear, Stage2: ModelLinear, Branch: 100})
	if err != nil {
		t.Fatal(err)
	}
	if idx.cfg.Branch > 3 {
		t.Errorf("branch not clamped: %d leaves", idx.cfg.Branch)
	}
	idx2, err := New(keys, Config{Stage1: ModelLinear, Stage2: ModelLinear, Branch: 0})
	if err != nil {
		t.Fatal(err)
	}
	if idx2.cfg.Branch != 1 {
		t.Errorf("zero branch should clamp to 1, got %d", idx2.cfg.Branch)
	}
}

func TestRMISizeGrowsWithBranch(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 10000, 1)
	small, _ := New(keys, Config{Stage1: ModelLinear, Stage2: ModelLinear, Branch: 16})
	large, _ := New(keys, Config{Stage1: ModelLinear, Stage2: ModelLinear, Branch: 1024})
	if small.SizeBytes() >= large.SizeBytes() {
		t.Errorf("size should grow with branch: %d vs %d", small.SizeBytes(), large.SizeBytes())
	}
}

func TestRMIErrorShrinksWithBranch(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 50000, 1)
	prev := math.Inf(1)
	for _, b := range []int{16, 256, 4096} {
		idx, _ := New(keys, Config{Stage1: ModelLinear, Stage2: ModelLinear, Branch: b})
		e := idx.AvgLog2Error()
		if e > prev+0.5 { // allow small non-monotonic wiggle
			t.Errorf("log2 error should shrink with branch: B=%d e=%f prev=%f", b, e, prev)
		}
		prev = e
	}
}

func TestRMIOSMHarderThanAmzn(t *testing.T) {
	// The paper's core observation about osm: at equal architecture,
	// the model error is much larger.
	n := 50000
	amzn := dataset.MustGenerate(dataset.Amzn, n, 1)
	osm := dataset.MustGenerate(dataset.OSM, n, 1)
	cfg := Config{Stage1: ModelLinear, Stage2: ModelLinear, Branch: 1024}
	ia, _ := New(amzn, cfg)
	io, _ := New(osm, cfg)
	if io.AvgLog2Error() <= ia.AvgLog2Error() {
		t.Errorf("osm log2 error (%f) should exceed amzn (%f)", io.AvgLog2Error(), ia.AvgLog2Error())
	}
}

func TestRMIBuilderInterface(t *testing.T) {
	var b core.Builder = Builder{Config: Config{Stage1: ModelLinear, Stage2: ModelLinear, Branch: 64}}
	if b.Name() != "RMI" {
		t.Errorf("builder name = %q", b.Name())
	}
	keys := dataset.MustGenerate(dataset.Wiki, 2000, 1)
	idx, err := b.Build(keys)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Name() != "RMI" {
		t.Errorf("index name = %q", idx.Name())
	}
	if idx.SizeBytes() <= 0 {
		t.Error("size must be positive")
	}
	checkValidity(t, idx, keys, probesFor(keys))
}

// TestRMIMaxErrorWidth: no lookup's bound is wider than the widest
// leaf's margins allow (errLo+errHi+1).
func TestRMIMaxErrorWidth(t *testing.T) {
	keys := dataset.MustGenerate(dataset.OSM, 5000, 1)
	idx, _ := New(keys, Config{Stage1: ModelLinear, Stage2: ModelLinear, Branch: 64})
	w := 0
	for li := 0; li < idx.cfg.Branch; li++ {
		_, errLo, errHi := idx.leafAt(li)
		w = max(w, errLo+errHi+1)
	}
	if w < 1 {
		t.Errorf("max error width %d < 1", w)
	}
	for _, k := range keys[:500] {
		if b := idx.Lookup(k); b.Width() > w {
			t.Errorf("bound %v wider than max error width %d", b, w)
		}
	}
}

func TestParetoLadder(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 100000, 1)
	branches := ParetoBranches(len(keys), 5)
	if len(branches) == 0 || len(branches) > 5 {
		t.Fatalf("got %d rungs", len(branches))
	}
	// Branch factors must span small to large.
	if branches[0] >= branches[len(branches)-1] {
		t.Errorf("ladder not spanning sizes: %v", branches)
	}
	for _, b := range branches {
		cfg := TuneBranch(keys, b)
		if cfg.Branch != b {
			t.Errorf("rung %d tuned to branch %d", b, cfg.Branch)
		}
		idx, err := New(keys, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		checkValidity(t, idx, keys, keys[:200])
	}
	// The ladder of an empty key set has one rung; resolving it must
	// yield a configuration (whose build then reports the empty set).
	if cfg := TuneBranch(nil, ParetoBranches(0, 5)[0]); cfg.Branch != 1 {
		t.Errorf("empty key set tuned to %v", cfg)
	}
}

// TestTuneBranchSharesStage1 pins the work one rung's tuning does: one
// stage-1 fit per distinct stage-1 kind of the candidate grid, all at
// the rung's own (sample-scaled) branching factor.
func TestTuneBranchSharesStage1(t *testing.T) {
	keys := dataset.MustGenerate(dataset.OSM, 300000, 1)
	stage1Fits = map[[2]int]int{}
	defer func() { stage1Fits = nil }()
	const branch = 4096
	TuneBranch(keys, branch)

	kinds := map[ModelKind]bool{}
	for _, c := range candidateCombos {
		kinds[c.s1] = true
	}
	if len(stage1Fits) != len(kinds) {
		t.Errorf("tuning one rung fitted %d (kind, branch) stage-1 models, want %d: %v", len(stage1Fits), len(kinds), stage1Fits)
	}
	sb := branch * tuneSampleMax / len(keys)
	for kb, fits := range stage1Fits {
		if fits != 1 {
			t.Errorf("stage-1 kind %v fitted %d times", ModelKind(kb[0]), fits)
		}
		if kb[1] != sb {
			t.Errorf("tuning branch %d (sample-scaled %d) trained at branch %d", branch, sb, kb[1])
		}
	}
}

// TestTuneBranchMatchesFromScratch checks the shared-routing tuner
// against the definition it optimises: train every candidate
// combination from scratch on the sample and keep the first cheapest.
func TestTuneBranchMatchesFromScratch(t *testing.T) {
	for _, ds := range dataset.All() {
		for _, n := range []int{1000, 60000, 300000} {
			keys := dataset.MustGenerate(ds, n, 1)
			s := sample(keys, tuneSampleMax)
			for _, branch := range ParetoBranches(n, 10) {
				want, wantCost := Config{}, math.Inf(1)
				for _, combo := range candidateCombos {
					idx, err := New(s, Config{Stage1: combo.s1, Stage2: combo.s2, Branch: max(1, branch*len(s)/n)})
					if err != nil {
						t.Fatal(err)
					}
					if c := proxyCost(idx); c < wantCost {
						want, wantCost = Config{Stage1: combo.s1, Stage2: combo.s2, Branch: branch}, c
					}
				}
				if got, cost := bestComboFor(keys, branch, 0); got != want || cost != wantCost {
					t.Errorf("%s n=%d B=%d: tuned %v (cost %v), from scratch %v (cost %v)", ds, n, branch, got, cost, want, wantCost)
				}
			}
		}
	}
}

func TestTuneRespectsBudget(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 100000, 1)
	budget := 64 * 1024
	cfg := Tune(keys, budget)
	idx, err := New(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if idx.SizeBytes() > budget {
		t.Errorf("tuned size %d exceeds budget %d", idx.SizeBytes(), budget)
	}
}

// TestTunePricesEachLayout: a budget that holds B = 4096 knot leaves
// but not B = 4096 linear ones still lets that rung compete, with its
// 6-byte leaves, and amzn's keys pick it.
func TestTunePricesEachLayout(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 100000, 1)
	budget := core.SizeOf(stage1Array, leafArray(modelKnot, 4096))
	if budget >= core.SizeOf(stage1Array, leafArray(ModelLinear, 4096)) {
		t.Fatalf("budget %d holds the linear rung too", budget)
	}
	if cfg := Tune(keys, budget); cfg != (Config{modelRadix, modelKnot, 4096}) {
		t.Errorf("tuned %v under a %d-byte budget, want rmi[radix,knot,B=4096]", cfg, budget)
	}
}

func TestConfigString(t *testing.T) {
	c := Config{Stage1: modelRadix, Stage2: ModelLinear, Branch: 128}
	if got := c.String(); got != "rmi[radix,linear,B=128]" {
		t.Errorf("String = %q", got)
	}
	if ModelKind(99).String() != "unknown" {
		t.Error("unknown kind string")
	}
}

func TestModelFitMonotone(t *testing.T) {
	// Whatever the data, fitted models must be monotone non-decreasing
	// over the training range (validity depends on it).
	keyset := [][]float64{
		{1, 2, 3, 4, 5, 6, 7, 8},
		{1, 10, 11, 12, 1000, 1001, 5000, 100000},
		{5, 5, 5, 5, 5}, // all equal
		{0, 1e18, 2e18, 3e18},
		{1, 2, 4, 8, 16, 32, 64, 128, 256, 512},
	}
	for _, keys := range keyset {
		for _, kind := range []ModelKind{ModelLinear, ModelLinearSpline, modelRadix} {
			m := fitModel(kind, keys, 0)
			prev := math.Inf(-1)
			for _, k := range keys {
				p := m.predict(k)
				if p < prev-1e-6 {
					t.Fatalf("kind %v on %v: non-monotone at key %v (%f < %f)", kind, keys, k, p, prev)
				}
				prev = p
			}
		}
	}
}

// TestNewRefusesCubic: the cubic model is retired; New refuses it at
// either stage rather than building a model it no longer fits.
func TestNewRefusesCubic(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 1000, 1)
	for _, cfg := range []Config{{ModelLinear, modelCubic, 16}, {modelCubic, ModelLinear, 16}} {
		if idx, err := New(keys, cfg); idx != nil || err == nil {
			t.Errorf("%v: (%v, %v), want an error", cfg, idx, err)
		}
	}
}
