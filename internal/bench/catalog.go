package bench

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/report"
)

// DefaultSeed is the seed the sosd CLI uses when none is given. The
// library itself never substitutes it: Options.Seed is honored
// verbatim, including an explicit 0, so the default lives in flag
// parsing where a default belongs.
const DefaultSeed uint64 = 42

// Options scales and filters the experiments. Scale 1 corresponds to
// the default laptop-scale dataset size (the paper's 200M keys map to
// dataset.DefaultN).
type Options struct {
	N       int    // dataset size; 0 = dataset.DefaultN/10 (quick)
	Lookups int    // lookup count; 0 = N/10
	Seed    uint64 // dataset/workload seed, used verbatim (see DefaultSeed)

	// Families restricts every family sweep to the named index
	// families; empty means each experiment's default set. Datasets
	// restricts the multi-dataset sweeps likewise; experiments pinned
	// to one dataset (e.g. the amzn-only figures) ignore it.
	Families []string
	Datasets []string
}

func (o Options) withDefaults() Options {
	if o.N == 0 {
		o.N = dataset.DefaultN / 10
	}
	if o.Lookups == 0 {
		o.Lookups = o.N / 10
	}
	return o
}

// Experiment is one catalog entry: a stable name (the CLI argument
// and report.Table.Experiment value), a one-line description, and the
// run function producing typed result tables.
type Experiment struct {
	Name string
	Desc string
	Run  func(*Run) ([]report.Table, error)
}

var (
	catalogMu sync.Mutex
	catalog   []Experiment
	byName    = map[string]int{}
)

// register adds an experiment to the catalog, in call order (package
// init order makes that the declaration order of the experiment
// files). Like registry's register it panics on duplicates and nil run
// functions: the catalog is assembled at init time, where failing
// loudly is the only useful behaviour.
func register(e Experiment) {
	if e.Name == "" || e.Run == nil {
		panic(fmt.Sprintf("bench: experiment %q registered without name or run", e.Name))
	}
	catalogMu.Lock()
	defer catalogMu.Unlock()
	if _, dup := byName[e.Name]; dup {
		panic(fmt.Sprintf("bench: duplicate experiment %q", e.Name))
	}
	byName[e.Name] = len(catalog)
	catalog = append(catalog, e)
}

// Experiments returns the catalog in registration order.
func Experiments() []Experiment {
	catalogMu.Lock()
	defer catalogMu.Unlock()
	return append([]Experiment(nil), catalog...)
}

// Find returns the named experiment.
func Find(name string) (Experiment, bool) {
	catalogMu.Lock()
	defer catalogMu.Unlock()
	i, ok := byName[name]
	if !ok {
		return Experiment{}, false
	}
	return catalog[i], true
}

// Run is the context handed to every experiment: the (defaulted)
// options, plus bookkeeping shared across the run — the checksum of
// every dataset environment generated, which the CLI emits as run
// metadata so two result files are comparable only when they measured
// identical data.
type Run struct {
	options Options

	mu        sync.Mutex
	checksums map[string]uint64
}

// NewRun prepares a run context. Defaults are applied once here; the
// Seed is kept verbatim (an explicit 0 stays 0).
func NewRun(o Options) *Run {
	return &Run{options: o.withDefaults(), checksums: map[string]uint64{}}
}

// env builds the benchmark environment for a dataset at the run's
// scale, recording its key checksum.
func (r *Run) env(name dataset.Name) (*Env, error) {
	return r.envAt(name, r.options.N, r.options.Lookups)
}

// envAt builds an environment at an explicit scale (the 1x..4x
// scaling sweeps), recording its key checksum.
func (r *Run) envAt(name dataset.Name, n, lookups int) (*Env, error) {
	e, err := NewEnv(name, n, lookups, r.options.Seed)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.checksums[fmt.Sprintf("%s/n=%d/seed=%d", name, n, r.options.Seed)] = keysChecksum(e.Keys)
	r.mu.Unlock()
	return e, nil
}

// DatasetChecksums returns a copy of the checksums of every
// environment generated so far, keyed "name/n=N/seed=S".
func (r *Run) DatasetChecksums() map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(r.checksums))
	for k, v := range r.checksums {
		out[k] = v
	}
	return out
}

// families filters an experiment's default family set through the
// run's -families option, preserving the experiment's order. With no
// filter the default set passes through unchanged.
func (r *Run) families(def []string) []string {
	return filterNames(def, r.options.Families)
}

// familyAllowed reports whether a single family passes the filter —
// for experiments whose rows are per-family but not loop-driven.
func (r *Run) familyAllowed(family string) bool {
	return nameAllowed(family, r.options.Families)
}

// datasets filters an experiment's default dataset sweep through the
// run's -datasets option.
func (r *Run) datasets(def []dataset.Name) []dataset.Name {
	return filterNames(def, r.options.Datasets)
}

// filterNames keeps the names of def the filter allows, in def's order.
func filterNames[T ~string](def []T, filter []string) []T {
	if len(filter) == 0 {
		return def
	}
	var out []T
	for _, n := range def {
		if nameAllowed(string(n), filter) {
			out = append(out, n)
		}
	}
	return out
}

func nameAllowed(name string, filter []string) bool {
	return len(filter) == 0 || slices.Contains(filter, name)
}

// keysChecksum is the dataset fingerprint recorded in run metadata:
// FNV-1a over the key bytes, deterministic across runs and platforms.
func keysChecksum(keys []core.Key) uint64 {
	return dataset.Checksum(keys)
}
