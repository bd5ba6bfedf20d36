// Package rmi implements the two-stage recursive model index of Kraska
// et al., as tuned and open-sourced by the paper (Section 3.1).
//
// A two-stage RMI consists of a single stage-1 model that routes a key
// to one of B stage-2 leaf models ("branching factor" B), and per-leaf
// error bounds collected during training. Lookups evaluate two models
// and return a search bound centred on the leaf's prediction:
//
//	A(x) = f2[ floor(B * f1(x) / N) ](x)
//
// Training is top-down (Equation 2 of the paper): the stage-1 model is
// fit on the whole CDF, then each leaf is fit on exactly the keys the
// stage-1 model routes to it, so inference and training agree.
//
// Validity for absent keys: every model is monotone non-decreasing over
// its training range (enforced at fit time), so the prediction for an
// absent key x with neighbours k(i-1) < x <= k(i) lies between the
// predictions for the neighbours; widening the recorded per-leaf error
// bound by one position therefore yields a bound containing LB(x) = i.
package rmi

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
)

// Config selects the RMI architecture: model kinds for the two stages
// and the branching factor (number of stage-2 leaf models).
type Config struct {
	Stage1 ModelKind
	Stage2 ModelKind
	// Branch is the branching factor B (number of leaf models). It is
	// clamped to at least 1.
	Branch int
}

// String implements fmt.Stringer.
func (c Config) String() string {
	return fmt.Sprintf("rmi[%v,%v,B=%d]", c.Stage1, c.Stage2, c.Branch)
}

// Builder builds RMIs with a fixed configuration.
type Builder struct {
	Config Config
}

// Name implements core.Builder.
func (b Builder) Name() string { return "RMI" }

// Build implements core.Builder.
func (b Builder) Build(keys []core.Key) (core.Index, error) {
	idx, err := New(keys, b.Config)
	if err != nil {
		return nil, err
	}
	return idx, nil
}

// Index is a trained two-stage RMI.
type Index struct {
	cfg    Config
	n      int
	stage1 model
	leaves []leaf
}

type leaf struct {
	m model
	// errLo and errHi are the search-bound margins below and above the
	// prediction. errLo covers the worst over-prediction (pred-actual)
	// and errHi the worst under-prediction (actual-pred); both include
	// the +1 widening needed for absent-key validity.
	errLo, errHi int32
	// loPos/hiPos clamp the leaf's predictions to the position range
	// it was trained on (inclusive); this keeps wild extrapolation in
	// check exactly like the reference implementation.
	loPos, hiPos int32
}

const leafSizeBytes = modelSizeBytes + 4*4

// New trains an RMI over sorted keys.
func New(keys []core.Key, cfg Config) (*Index, error) {
	if len(keys) == 0 {
		return nil, errors.New("rmi: empty key set")
	}
	fkeys := floatKeys(keys)
	return trainStage1(fkeys, cfg.Stage1, cfg.Branch).finish(fkeys, cfg.Stage2), nil
}

// floatKeys converts keys to the float64 domain the models work in.
func floatKeys(keys []core.Key) []float64 {
	fkeys := make([]float64, len(keys))
	for i, k := range keys {
		fkeys[i] = float64(k)
	}
	return fkeys
}

// stage1Fits counts stage-1 model fits by (kind, branch) while non-nil.
// Tests set it to pin how much work tuning does; it is never set while
// anything trains concurrently.
var stage1Fits map[[2]int]int

// routed is the top half of a trained RMI: the stage-1 model and the
// routing of every training key through it. Nothing in it depends on
// the stage-2 kind, so the tuner fits and routes once per stage-1 kind
// and finishes the same routed stage with each stage-2 candidate.
type routed struct {
	top Index // cfg.Stage1, cfg.Branch, n and stage1 set; no leaves
	// assign is the leaf each key routes to; first/last are the span of
	// positions each leaf receives (first < 0 for an empty leaf).
	assign, first, last []int
}

// trainStage1 fits the stage-1 model on the full CDF and routes every
// key through it. The model predicts positions in [0, n-1]; routing
// scales by B/n.
func trainStage1(fkeys []float64, kind ModelKind, branch int) *routed {
	n := len(fkeys)
	if branch < 1 {
		branch = 1
	}
	if branch > n {
		branch = n
	}
	if stage1Fits != nil {
		stage1Fits[[2]int{int(kind), branch}]++
	}
	r := &routed{
		top:    Index{cfg: Config{Stage1: kind, Branch: branch}, n: n, stage1: fitModel(kind, fkeys, 0)},
		assign: make([]int, n),
		first:  make([]int, branch),
		last:   make([]int, branch),
	}
	// Route every key through stage 1 with exactly the lookup-time
	// routing function, and record the span of positions each leaf
	// receives. Monotone stage-1 models make spans contiguous; the
	// span bookkeeping below stays correct even if float rounding
	// produces a stray non-monotone assignment.
	for li := range r.first {
		r.first[li] = -1
	}
	for i := range fkeys {
		li := r.top.route(fkeys[i])
		r.assign[i] = li
		if r.first[li] < 0 {
			r.first[li] = i
		}
		r.last[li] = i
	}
	return r
}

// finish trains the stage-2 leaves of the given kind over the routing
// and returns the complete index. r is not modified and can be
// finished again with another kind.
func (r *routed) finish(fkeys []float64, stage2 ModelKind) *Index {
	idx := r.top
	idx.cfg.Stage2 = stage2
	n, B := idx.n, idx.cfg.Branch
	idx.leaves = make([]leaf, B)

	// Fit each leaf on the contiguous span of keys it received.
	// Empty leaves get a constant model at the boundary position so
	// keys routed there still receive valid (if wide) bounds; the
	// boundary is the first position owned by any later leaf.
	nextStart := n
	for li := B - 1; li >= 0; li-- {
		lf := &idx.leaves[li]
		first, last := r.first[li], r.last[li]
		if first < 0 {
			p := clampPos(nextStart, n)
			lf.m = fitModel(ModelLinearSpline, nil, float64(p))
			lf.loPos, lf.hiPos = int32(p), int32(p)
			lf.errLo, lf.errHi = 1, 1
			continue
		}
		lf.m = fitModel(stage2, fkeys[first:last+1], float64(first))
		lf.loPos, lf.hiPos = int32(first), int32(last)
		nextStart = first
	}

	// Error collection: replay every key through the lookup path so the
	// recorded bounds are exact for present keys by construction.
	for i := range fkeys {
		lf := &idx.leaves[r.assign[i]]
		d := lf.clampPredict(fkeys[i]) - i
		// Over-prediction (d > 0) means the true position lies below
		// the prediction: it widens the low margin, and vice versa.
		if d+1 > int(lf.errLo) {
			lf.errLo = int32(d + 1)
		}
		if -d+1 > int(lf.errHi) {
			lf.errHi = int32(-d + 1)
		}
	}
	return &idx
}

func clampPos(p, n int) int {
	if p < 0 {
		return 0
	}
	if p >= n {
		return n - 1
	}
	return p
}

// route maps a key (as float64) to a leaf number.
func (idx *Index) route(fkey float64) int {
	p := idx.stage1.predict(fkey)
	li := int(p * float64(idx.cfg.Branch) / float64(idx.n))
	if li < 0 {
		return 0
	}
	if li >= idx.cfg.Branch {
		return idx.cfg.Branch - 1
	}
	return li
}

// clampPredict evaluates the leaf model and clamps into the leaf's
// trained position range, returning a rounded integer position.
func (lf *leaf) clampPredict(fkey float64) int {
	p := lf.m.predict(fkey)
	// Clamp in float space: converting an out-of-range float64 to int
	// is not defined in Go and wraps to the wrong extreme on amd64.
	if p <= float64(lf.loPos) {
		return int(lf.loPos)
	}
	if p >= float64(lf.hiPos) {
		return int(lf.hiPos)
	}
	return int(math.Round(p))
}

// Lookup implements core.Index.
func (idx *Index) Lookup(key core.Key) core.Bound {
	fkey := float64(key)
	lf := &idx.leaves[idx.route(fkey)]
	pos := lf.clampPredict(fkey)
	return core.BoundAround(pos, int(lf.errLo), int(lf.errHi), idx.n)
}

// batchChunk is the LookupBatch processing granularity: the per-chunk
// leaf-routing scratch lives on the stack, and a chunk's keys stay in
// L1 between the two passes.
const batchChunk = 64

// LookupBatch implements core.BatchIndex. The batch is processed in
// two passes per chunk: pass 1 routes every key through the stage-1
// model (pure arithmetic, model coefficients pinned in registers);
// pass 2 evaluates the routed leaves. Splitting the passes decouples
// the random leaf-array loads from the routing arithmetic: the loads
// of different keys are independent, so the out-of-order core overlaps
// their cache misses instead of serializing a route→load→predict chain
// per key. Routing uses exactly the scalar route() arithmetic, so
// batched bounds are bit-identical to Lookup's.
func (idx *Index) LookupBatch(keys []core.Key, out []core.Bound) {
	n := idx.n
	var route [batchChunk]int32
	for off := 0; off < len(keys); off += batchChunk {
		end := off + batchChunk
		if end > len(keys) {
			end = len(keys)
		}
		chunk := keys[off:end]
		outc := out[off:end]
		for i, x := range chunk {
			route[i] = int32(idx.route(float64(x)))
		}
		for i, x := range chunk {
			lf := &idx.leaves[route[i]]
			pos := lf.clampPredict(float64(x))
			outc[i] = core.BoundAround(pos, int(lf.errLo), int(lf.errHi), n)
		}
	}
}

// SizeBytes implements core.Index.
func (idx *Index) SizeBytes() int {
	return modelSizeBytes + len(idx.leaves)*leafSizeBytes
}

// Name implements core.Index.
func (idx *Index) Name() string { return "RMI" }

// Config returns the architecture this index was trained with.
func (idx *Index) ConfigUsed() Config { return idx.cfg }

// MaxErrorWidth returns the widest possible search bound the index can
// produce (max over leaves of errLo+errHi+1); a diagnostic used by the
// tuner and the explanatory analysis.
func (idx *Index) MaxErrorWidth() int {
	w := 0
	for i := range idx.leaves {
		if e := int(idx.leaves[i].errLo + idx.leaves[i].errHi + 1); e > w {
			w = e
		}
	}
	return w
}

// AvgLog2Error returns the mean log2 of the search-bound width over all
// keys' leaves, weighted by leaf occupancy — the paper's "log2 error"
// metric (expected binary-search steps).
func (idx *Index) AvgLog2Error() float64 {
	total := 0.0
	count := 0.0
	for i := range idx.leaves {
		lf := &idx.leaves[i]
		occ := float64(lf.hiPos-lf.loPos) + 1
		if occ <= 0 {
			continue
		}
		width := float64(lf.errLo + lf.errHi + 1)
		total += occ * math.Log2(width+1)
		count += occ
	}
	if count == 0 {
		return 0
	}
	return total / count
}

// NumLeaves reports the branching factor actually used.
func (idx *Index) NumLeaves() int { return len(idx.leaves) }

// Explain returns the lookup-path internals for the performance-
// counter simulation: the routed leaf, the predicted position, and
// the resulting bound. It follows exactly the Lookup code path.
func (idx *Index) Explain(key core.Key) (leaf, pos int, b core.Bound) {
	fkey := float64(key)
	leaf = idx.route(fkey)
	lf := &idx.leaves[leaf]
	pos = lf.clampPredict(fkey)
	return leaf, pos, core.BoundAround(pos, int(lf.errLo), int(lf.errHi), idx.n)
}
