package rmi

import (
	"math"
	"sort"
	"sync"

	"repro/internal/core"
)

// The tuner plays the role of CDFShop (Marcus et al., SIGMOD'20 demo):
// given a dataset, it explores stage-model combinations and branching
// factors, scores each architecture with a latency proxy, and returns
// either the best configuration under a size budget or a Pareto sweep
// of configurations across sizes.
//
// The latency proxy combines model inference cost with the expected
// number of last-mile binary-search steps (the paper's "log2 error"),
// the two terms the paper identifies learned indexes as trading off.

// inferenceCost is a relative per-eval cost for each model kind, in
// binary-search-step-equivalent units.
func inferenceCost(k ModelKind) float64 {
	switch k {
	case modelRadix:
		return 0.5
	case ModelLinearSpline, ModelLinear:
		return 0.8
	case modelKnot:
		// Linear's less 0.1, a hand constant as the others are. Amzn at
		// B = 4096, 2-vCPU Xeon: lookup plus last mile 60.4 vs linear's
		// 64.3 ns at 250k keys, 133.6 vs 142.1 at 2M (10 interleaved
		// runs); in one process the bounds alone won 273 of 300 rounds at
		// 2M and, with the last mile, were level, at a 4–5 % wider bound.
		return 0.7
	default:
		return 1
	}
}

// proxyCost scores a trained RMI: the inference cost of its two
// models (one per stage) plus the expected binary-search steps. It has
// no term for the leaf array's size or the cache miss a large one costs.
func proxyCost(idx *Index) float64 {
	c := inferenceCost(idx.cfg.Stage1) + inferenceCost(idx.cfg.Stage2)
	return c + idx.AvgLog2Error()
}

// candidateCombos is the architecture grid the tuner explores. The
// reference CDFShop grid is larger, with cubic and linear-spline stage
// 1s too; on the SOSD datasets at 20k to 2M keys no rung picks either
// (a linear-spline stage 1 routes as radix does, at a dearer inference
// cost), and each stage-1 kind costs TuneWork three visits a sample key.
var candidateCombos = []struct{ s1, s2 ModelKind }{
	{ModelLinear, ModelLinear},
	{modelRadix, ModelLinear},
	{ModelLinear, ModelLinearSpline},
	{ModelLinear, modelKnot},
	{modelRadix, modelKnot},
}

// tuneSampleMax caps the number of keys used while exploring
// architectures; final indexes are always trained on the full data.
const tuneSampleMax = 131072

// sample returns at most m evenly spaced keys.
func sample(keys []core.Key, m int) []core.Key {
	n := len(keys)
	if n <= m {
		return keys
	}
	out := make([]core.Key, m)
	for i := 0; i < m; i++ {
		out[i] = keys[i*(n-1)/(m-1)]
	}
	// Evenly spaced sampling can repeat endpoints on tiny inputs;
	// uniqueness is not required by the trainer.
	return out
}

// bestComboFor returns the lowest-proxy-cost (stage1, stage2) pair for
// the given branch factor whose index fits sizeBudget bytes (0 means
// unlimited; +Inf if none fits), tuned on a sample of keys. The sample is
// drawn once, each distinct stage-1 kind is fitted and routed once
// (on a conversion of its own, which the routing overwrites), and
// every stage-2 kind paired with it is finished over that shared
// routing in one replay of the sample — the same models, costs and
// tie-breaks as training each combination from scratch, for half the
// work.
// The stage-1 kinds are independent, so each is tuned on a goroutine of
// its own; the first cheapest combination in grid order wins, as it
// would one after the other.
func bestComboFor(keys []core.Key, branch, sizeBudget int) (Config, float64) {
	best := Config{Stage1: ModelLinear, Stage2: ModelLinear, Branch: branch}
	bestCost := math.Inf(1)
	if len(keys) == 0 {
		return best, bestCost
	}
	s := sample(keys, tuneSampleMax)
	// Scale the branch factor to the sample so leaf occupancy (and
	// hence log2 error) is comparable to the full build.
	sb := branch * len(s) / len(keys)
	costs := make([]float64, len(candidateCombos))
	fits := func(s2 ModelKind) bool {
		return sizeBudget == 0 || core.SizeOf(stage1Array, leafArray(s2, branch)) <= sizeBudget
	}
	tuned := map[ModelKind]bool{}
	var wg sync.WaitGroup
	for _, combo := range candidateCombos {
		if tuned[combo.s1] || !fits(combo.s2) {
			continue
		}
		tuned[combo.s1] = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			at, kinds := []int{}, []ModelKind{}
			for i, c := range candidateCombos {
				if c.s1 == combo.s1 && fits(c.s2) {
					at, kinds = append(at, i), append(kinds, c.s2)
				}
			}
			for j, idx := range trainStage1(floatKeys(s), combo.s1, sb).finish(kinds...) {
				costs[at[j]] = proxyCost(idx)
			}
		}()
	}
	wg.Wait()
	for i, combo := range candidateCombos {
		if fits(combo.s2) && costs[i] < bestCost {
			bestCost = costs[i]
			best = Config{Stage1: combo.s1, Stage2: combo.s2, Branch: branch}
		}
	}
	return best, bestCost
}

// TuneBranch returns the tuned configuration at one branching factor:
// one rung of the ParetoBranches ladder, resolved on its own.
func TuneBranch(keys []core.Key, branch int) Config {
	cfg, _ := bestComboFor(keys, branch, 0)
	return cfg
}

// TuneWork is the key visits of tuning and building an RMI over n keys:
// each distinct stage-1 kind of candidateCombos fitted and finished on
// a sample of at most tuneSampleMax keys, then the chosen combination
// fitted and finished on all n. A stage-1 fit visits every key twice
// (fit, then route), and a finish once per fitted stage-2 kind (a knot
// leaf fits nothing) and once more for the one error replay all its
// kinds share. The final build is priced at a fitted finish, the
// dearer: which leaf wins depends on the keys. Over candidateCombos'
// two stage-1 kinds and three fitted leaves that is 13 visits a key up
// to tuneSampleMax keys.
func TuneWork(n int) int64 {
	kinds, fitted := map[ModelKind]bool{}, 0
	for _, c := range candidateCombos {
		kinds[c.s1] = true
		if c.s2 != modelKnot {
			fitted++
		}
	}
	return int64((3*len(kinds)+fitted)*min(n, tuneSampleMax) + 4*n)
}

// branchGrid returns the branching factors explored for a dataset of n
// keys: powers of four from 64 up to n/2, capped at 4M leaves.
func branchGrid(n int) []int {
	var grid []int
	for b := 64; b <= n/2 && b <= 1<<22; b *= 4 {
		grid = append(grid, b)
	}
	if len(grid) == 0 {
		grid = []int{1}
	}
	return grid
}

// ParetoBranches returns up to count branching factors spanning the
// size range (small to large) for n keys, mirroring the paper's "ten
// configurations ranging from minimum to maximum size". The ladder is
// a function of n alone; TuneBranch resolves the rungs a caller wants.
func ParetoBranches(n, count int) []int {
	grid := branchGrid(n)
	if count > 0 && len(grid) > count {
		// Thin the grid evenly, keeping the extremes.
		thin := make([]int, count)
		for i := 0; i < count; i++ {
			thin[i] = grid[i*(len(grid)-1)/(count-1)]
		}
		grid = thin
	}
	return grid
}

// Tune returns the best configuration whose index size fits within
// sizeBudget bytes (0 means unlimited). This is the entry point used
// by Table 2 ("fastest variant").
func Tune(keys []core.Key, sizeBudget int) Config {
	type scored struct {
		cfg  Config
		cost float64
	}
	var all []scored
	for _, b := range branchGrid(len(keys)) {
		if cfg, cost := bestComboFor(keys, b, sizeBudget); !math.IsInf(cost, 1) {
			all = append(all, scored{cfg, cost})
		}
	}
	if len(all) == 0 {
		return Config{Stage1: ModelLinear, Stage2: ModelLinear, Branch: 64}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].cost < all[j].cost })
	return all[0].cfg
}
