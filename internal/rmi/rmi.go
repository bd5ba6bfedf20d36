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
	"sync"

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

// Index is a trained two-stage RMI. The stage-2 kind is a property of
// the index, not of a leaf: exactly one of leaves and cubics is set, and
// a lookup path picks the layout once, outside its per-key loop.
type Index struct {
	cfg     Config
	n       int
	stage1  model
	scale   float64     // B/n: route multiplies the stage-1 position by it
	leaves  []leaf      // Stage2 linear, linear_spline or radix
	cubics  []cubicLeaf // Stage2 cubic
	avgLog2 float64     // AvgLog2Error, computed by finish: it needs the trained spans
}

// clamps is the tail of both leaf layouts.
type clamps struct {
	// A leaf's rounded prediction is clamped to [lo, hi], inside the
	// span of positions it was trained on; this keeps extrapolation in
	// check exactly like the reference implementation.
	lo, hi int32
	// errLo and errHi are the search-bound margins below and above the
	// prediction. errLo covers the worst over-prediction (pred-actual)
	// and errHi the worst under-prediction (actual-pred); both include
	// the +1 widening needed for absent-key validity.
	errLo, errHi core.Margin
}

// leaf is a linear second-stage model with the key normalisation and
// the clamps of model.predict and of the trained span folded in at
// build time (see foldLeaf): pos = lo + slope·(key − keyOff), rounded
// and clamped to [lo, hi]. 24 bytes: of every eight in a line-aligned
// array, the two at offsets 48 and 56 mod 64 straddle a cache line.
type leaf struct {
	keyOff float64
	slope  float32
	clamps
}

// cubicLeaf is a cubic second-stage model, one 64-byte cache line, with
// [lo, hi] the trained span. It needs no tag: a leaf whose cubic fit
// fell back to a line has c2 = c3 = 0 (see poly.cubic).
type cubicLeaf struct {
	poly
	clamps
}

// Bytes a leaf of each layout occupies in memory (pinned by a test).
const leafBytes, cubicLeafBytes = 24, 64

// foldLeaf folds a fitted linear model and the span [loPos, hiPos] it
// was trained on into the 24-byte layout. The slope, key scale
// absorbed, is rounded to float32 first, and the line is the one with
// that slope: it moves a prediction by at most 2⁻²⁴ of the span.
// model.predict clamps t to [0, 1], i.e. the prediction to [c0,
// c0+c1]; the span clamps it again; rounding is monotone, so both are
// one integer clamp of the rounded line. The intercept moves into the
// key origin: keyOff is where the line crosses lo. Margins are measured
// through pos afterwards, so they cover what the re-origin rounds away.
func foldLeaf(m *model, loPos, hiPos int) leaf {
	slope := float32(m.c1 * m.keyScale)
	lo := clampRound(m.c0, loPos, hiPos)
	lf := leaf{slope: slope, clamps: clamps{int32(lo), int32(lo), 1, 1}}
	if slope > 0 {
		lf.hi = int32(clampRound(m.c0+float64(slope)/m.keyScale, loPos, hiPos))
		lf.keyOff = m.keyOff - (m.c0-float64(lo))/float64(slope)
	}
	return lf
}

func (lf *leaf) pos(fkey float64) int {
	return clampRound(float64(lf.lo)+float64(lf.slope)*(fkey-lf.keyOff), int(lf.lo), int(lf.hi))
}

func (lf *cubicLeaf) pos(fkey float64) int {
	return clampRound(lf.cubic(fkey), int(lf.lo), int(lf.hi))
}

// clampRound rounds p to the nearest position in [lo, hi], lo >= 0.
func clampRound(p float64, lo, hi int) int {
	// Clamp in float space: converting an out-of-range float64 to int
	// is not defined in Go and wraps to the wrong extreme on amd64.
	if p <= float64(lo) {
		return lo
	}
	if p >= float64(hi) {
		return hi
	}
	return int(p + 0.5)
}

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
	core.Parallel(len(keys), func(_, lo, hi int) struct{} {
		for i := lo; i < hi; i++ {
			fkeys[i] = float64(keys[i])
		}
		return struct{}{}
	})
	return fkeys
}

// stage1Fits counts stage-1 model fits by (kind, branch) while non-nil.
// Tests set it to pin how much work tuning does; the tuner fits its
// stage-1 kinds concurrently, so the counts are taken under a lock.
var (
	stage1Fits   map[[2]int]int
	stage1FitsMu sync.Mutex
)

// routed is the top half of a trained RMI: the stage-1 model and the
// routing of every training key through it. Nothing in it depends on
// the stage-2 kind, so the tuner fits and routes once per stage-1 kind
// and finishes the same routed stage with each stage-2 candidate.
type routed struct {
	top Index // cfg.Stage1, cfg.Branch, n and stage1 set; no leaves
	// assign is the leaf each key routes to; first/last are the span of
	// positions each leaf receives (both -1 for an empty leaf).
	assign      []int32
	first, last []int
	// routes[k] is what the k-th range core.Parallel cuts the keys into
	// routes: its leaves and the span of positions each receives from it.
	// finish cuts the same keys into the same ranges.
	routes []leafRun
}

// leafRun is what one range of keys finds for the leaves its keys route
// to, leaf0 to leaf0+len(spans)-1: the first and last position each
// leaf receives from the range (both -1 if none).
type leafRun struct {
	leaf0 int
	spans [][2]int32
}

// trainStage1 fits the stage-1 model on the full CDF and routes every
// key through it. The model predicts positions in [0, n-1]; routing
// scales by B/n.
func trainStage1(fkeys []float64, kind ModelKind, branch int) *routed {
	n := len(fkeys)
	branch = max(1, min(branch, n))
	stage1FitsMu.Lock()
	if stage1Fits != nil {
		stage1Fits[[2]int{int(kind), branch}]++
	}
	stage1FitsMu.Unlock()
	r := &routed{
		top: Index{cfg: Config{Stage1: kind, Branch: branch}, n: n,
			stage1: fitModel(kind, fkeys, 0), scale: float64(branch) / float64(n)},
		assign: make([]int32, n),
		first:  make([]int, branch),
		last:   make([]int, branch),
	}
	// Route every key through stage 1 with exactly the lookup-time
	// routing function, and record the span of positions each leaf
	// receives. Monotone stage-1 models make spans contiguous; the
	// span bookkeeping below stays correct even if float rounding
	// produces a stray non-monotone assignment. Ranges of keys route
	// chunk-wise, each recording the spans its own keys give, and the
	// spans merge in range order: a leaf's first position is the first
	// range's that has one, its last the last range's.
	r.routes = core.Parallel(n, func(_, lo, hi int) leafRun {
		l0, l1 := branch, -1
		for i := lo; i < hi; i++ {
			li := r.top.route(fkeys[i])
			r.assign[i] = int32(li)
			l0, l1 = min(l0, li), max(l1, li)
		}
		run := leafRun{leaf0: l0, spans: make([][2]int32, l1-l0+1)}
		for j := range run.spans {
			run.spans[j] = [2]int32{-1, -1}
		}
		for i := lo; i < hi; i++ {
			s := &run.spans[int(r.assign[i])-l0]
			if s[0] < 0 {
				s[0] = int32(i)
			}
			s[1] = int32(i)
		}
		return run
	})
	for li := range r.first {
		r.first[li], r.last[li] = -1, -1
	}
	for _, run := range r.routes {
		for j, s := range run.spans {
			if li := run.leaf0 + j; s[0] >= 0 {
				if r.first[li] < 0 {
					r.first[li] = int(s[0])
				}
				r.last[li] = int(s[1])
			}
		}
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
	cubic := stage2 == ModelCubic
	if cubic {
		idx.cubics = make([]cubicLeaf, B)
	} else {
		idx.leaves = make([]leaf, B)
	}

	// setLeaf fits leaf li on the keys at positions first..last it was
	// trained on (none for an empty leaf).
	setLeaf := func(li, first, last int, trained []float64) {
		m := fitModel(stage2, trained, float64(first))
		if cubic {
			idx.cubics[li] = cubicLeaf{m.poly, clamps{int32(first), int32(last), 1, 1}}
		} else {
			idx.leaves[li] = foldLeaf(&m, first, last)
		}
	}
	// Fit each leaf on the contiguous span of keys it received. The fits
	// are independent, and run chunk-wise, the leaves cut in proportion
	// to the keys' ranges.
	core.Parallel(n, func(_, lo, hi int) struct{} {
		for li := lo * B / n; li < hi*B/n; li++ {
			if first, last := r.first[li], r.last[li]; first >= 0 {
				setLeaf(li, first, last, fkeys[first:last+1])
			}
		}
		return struct{}{}
	})
	// Empty leaves get a constant model at the boundary position so
	// keys routed there still receive valid (if wide) bounds; the
	// boundary is the first position owned by any later leaf.
	nextStart := n
	for li := B - 1; li >= 0; li-- {
		if first := r.first[li]; first >= 0 {
			nextStart = first
		} else {
			p := min(nextStart, n-1)
			setLeaf(li, p, p, nil)
		}
	}

	// Error collection: replay every key through the lookup path so the
	// recorded bounds are exact for present keys by construction. Ranges
	// of keys replay chunk-wise into the worst over- and under-prediction
	// of each leaf they routed to, merged by max, which does not care in
	// what order. A margin covers its worst error +1 for absent keys,
	// encoded once per leaf: core.ToMargin's codes order as their
	// values do, so the code of the worst is the worst of the codes.
	worst := core.Parallel(n, func(k, lo, hi int) [][2]int {
		leaf0 := r.routes[k].leaf0
		w := make([][2]int, len(r.routes[k].spans)) // {pred-actual, actual-pred}
		for i := lo; i < hi; i++ {
			li := int(r.assign[i])
			var pos int
			if cubic {
				pos = idx.cubics[li].pos(fkeys[i])
			} else {
				pos = idx.leaves[li].pos(fkeys[i])
			}
			d := &w[li-leaf0]
			d[0], d[1] = max(d[0], pos-i), max(d[1], i-pos)
		}
		return w
	})
	for k, w := range worst {
		for j, d := range w {
			c := idx.clampsOf(r.routes[k].leaf0 + j)
			c.errLo, c.errHi = max(c.errLo, core.ToMargin(d[0]+1)), max(c.errHi, core.ToMargin(d[1]+1))
		}
	}

	// The paper's "log2 error": mean log2 of the search-bound width,
	// each leaf weighted by the keys it was trained on (an empty leaf,
	// first = last = -1, counts as one).
	total, count := 0.0, 0.0
	for li := 0; li < B; li++ {
		occ := float64(r.last[li]-r.first[li]) + 1
		c := idx.clampsOf(li)
		total += occ * math.Log2(float64(c.errLo.Value()+c.errHi.Value()+1)+1)
		count += occ
	}
	idx.avgLog2 = total / count
	return &idx
}

// route maps a key (as float64) to a leaf number.
func (idx *Index) route(fkey float64) int {
	li := int(idx.stage1.predict(fkey) * idx.scale)
	if li < 0 {
		return 0
	}
	if li >= idx.cfg.Branch {
		return idx.cfg.Branch - 1
	}
	return li
}

// Lookup implements core.Index.
func (idx *Index) Lookup(key core.Key) core.Bound {
	_, _, b := idx.Explain(key)
	return b
}

// SizeBytes implements core.Index: the stage-1 model plus the leaf array
// as memory holds it.
func (idx *Index) SizeBytes() int {
	return modelSizeBytes + idx.NumLeaves()*idx.LeafBytes()
}

// LeafBytes is the leaf array's stride: what a lookup's leaf access loads.
func (idx *Index) LeafBytes() int {
	if idx.cubics != nil {
		return cubicLeafBytes
	}
	return leafBytes
}

// Name implements core.Index.
func (idx *Index) Name() string { return "RMI" }

// clampsOf returns leaf li's clamps and margins in whichever layout.
func (idx *Index) clampsOf(li int) *clamps {
	if idx.cubics != nil {
		return &idx.cubics[li].clamps
	}
	return &idx.leaves[li].clamps
}

// AvgLog2Error returns the mean log2 of the search-bound width over all
// keys' leaves, weighted by leaf occupancy — the paper's "log2 error"
// metric (expected binary-search steps).
func (idx *Index) AvgLog2Error() float64 { return idx.avgLog2 }

// NumLeaves reports the branching factor actually used.
func (idx *Index) NumLeaves() int { return idx.cfg.Branch }

// Explain returns the lookup-path internals for the performance-
// counter simulation: the routed leaf, the predicted position, and
// the resulting bound. It is the Lookup code path.
func (idx *Index) Explain(key core.Key) (leaf, pos int, b core.Bound) {
	fkey := float64(key)
	leaf = idx.route(fkey)
	if idx.cubics != nil {
		lf := &idx.cubics[leaf]
		pos = lf.pos(fkey)
		return leaf, pos, core.BoundAround(pos, lf.errLo.Value(), lf.errHi.Value(), idx.n)
	}
	lf := &idx.leaves[leaf]
	pos = lf.pos(fkey)
	return leaf, pos, core.BoundAround(pos, lf.errLo.Value(), lf.errHi.Value(), idx.n)
}
