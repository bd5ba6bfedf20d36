// Package rmi implements the two-stage recursive model index of Kraska
// et al., as tuned and open-sourced by the paper (Section 3.1).
//
// A two-stage RMI consists of a single stage-1 model that routes a key
// to one of B stage-2 leaf models ("branching factor" B), and per-leaf
// error bounds collected during training. Lookups evaluate two models
// and return a search bound centred on the leaf's prediction. Stage 1's
// position, scaled to leaves, picks the leaf by its integer part, and
// the leaf reads its fractional part:
//
//	u = B * f1(x) / N,  A(x) = f2[ floor(u) ](u - floor(u))
//
// Training is top-down (Equation 2 of the paper): the stage-1 model is
// fit on the whole CDF, then each leaf is fit on the fractions of
// exactly the keys the stage-1 model routes to it, so inference and
// training agree. A leaf so needs no key origin of its own, and its
// upper clamp is the next leaf's first position: a linear leaf is 16
// bytes. A knot leaf fits nothing: it interpolates from its first
// position to the next leaf's by the fraction, and is 6 bytes.
//
// Validity for absent keys: every model is monotone non-decreasing over
// its training range (enforced at fit time), so the prediction for an
// absent key x with neighbours k(i-1) < x <= k(i) lies between the
// predictions for the neighbours (u is monotone in the key, and each
// leaf's prediction in its fraction); widening the recorded per-leaf
// error bound by one position therefore yields a bound containing
// LB(x) = i.
package rmi

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
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
// the index, not of a leaf: exactly one of leaves and knots is set, and
// a lookup path picks the layout once, outside its per-key loop.
type Index struct {
	cfg     Config
	n       int // also the last leaf's upper clamp: each array holds just B leaves
	stage1  model
	scale   float64 // B/n: Trace multiplies the stage-1 position by it
	leaves  []leaf  // Stage2 linear, linear_spline or radix
	knots   []knot  // Stage2 knot
	avgLog2 float64 // AvgLog2Error, computed by finish: it needs the trained spans
}

// leaf is a linear second-stage model over the fraction f in [0, 1) of
// stage 1's scaled output that routed to it: pos = lo + slope·(f − fOff),
// rounded and clamped (see fold). 16 bytes, four to a cache line, so
// the next leaf's lo, the upper clamp, shares the line for three in four.
type leaf struct {
	fOff, slope float32
	// lo is the leaf's first trained position (an empty leaf's is the
	// next leaf's). A leaf's rounded prediction is clamped to lo and the
	// next leaf's lo − 1, the span of positions it was trained on; this
	// keeps extrapolation in check exactly like the reference
	// implementation.
	lo int32
	// errLo and errHi are the search-bound margins below and above the
	// prediction. errLo covers the worst over-prediction (pred-actual)
	// and errHi the worst under-prediction (actual-pred); both include
	// the +1 widening needed for absent-key validity.
	errLo, errHi margin16
}

// knot is a knot leaf: its margins as one-byte codes, then lo in 16-bit
// halves, 6 bytes with no padding; lo ends it, so a lookup's read of a
// leaf and the next one's lo spans the lines of the two leaves.
type knot struct {
	errLo, errHi  core.Margin
	loLow, loHigh uint16
}

func (k *knot) lo() int32 { return int32(k.loLow) | int32(k.loHigh)<<16 }

// Bytes a leaf of each layout occupies in memory (pinned by a test).
const leafBytes, knotBytes = 16, 6

// margin16 is a linear leaf's margin: a 5-bit exponent e over an 11-bit
// mantissa m, worth m<<e. toMargin16 rounds any v < 2³¹ up, by at most
// v>>10 (exact below 2,048); its codes order as their values do.
type margin16 uint16

func toMargin16(v int) margin16 {
	v = max(v, 0)
	e := max(bits.Len(uint(v))-11, 0)
	m := (v + 1<<e - 1) >> e
	c := m >> 11 // 1 where rounding up carried into the next exponent
	return margin16((e+c)<<11 | m>>c)
}

// value decodes m with no branch.
func (m margin16) value() int { return int(m&0x7ff) << (m >> 11 & 63) }

// fold folds a linear model fitted on fractions into lf, whose lo is
// set. The slope, fraction scale absorbed, is rounded to float32
// first, and the line is the one with that slope; fOff is where it
// crosses lo, rounded to float32. Margins are measured through pos
// afterwards, so they cover what either rounding moves. A line too flat
// to cross lo within float32's range is stored flat, predicting lo.
func (lf *leaf) fold(m *model) {
	slope := float32(m.c1 * m.keyScale)
	if off := m.keyOff - (m.c0-float64(lf.lo))/float64(slope); slope > 0 && math.Abs(off) <= math.MaxFloat32 {
		lf.fOff, lf.slope = float32(off), slope
	}
}

// pos is the leaf's rounded prediction for fraction f, clamped to its
// lo and next − 1, next being the lo of the leaf after it.
func (lf *leaf) pos(f float64, next int32) int {
	return clampRound(lf.lo, float64(lf.slope)*(f-float64(lf.fOff)), next)
}

// knotPos is a knot leaf's prediction: the point the fraction f
// reaches on the line from lo to next.
func knotPos(lo int32, f float64, next int32) int {
	return clampRound(lo, f*float64(next-lo), next)
}

// clampRound rounds lo + d to the nearest position from lo to next − 1;
// lo wins where that range is empty, as an empty leaf's is.
func clampRound(lo int32, d float64, next int32) int {
	if d <= 0 {
		return int(lo)
	}
	// Clamp in float space first: converting an out-of-range float64 to
	// int is not defined in Go. No leaf spans 2³¹ positions.
	if d > 1<<31 {
		d = 1 << 31
	}
	return min(int(lo)+int(d+0.5), int(next)-1)
}

// New trains an RMI over sorted keys. The retired cubic kind is refused
// at either stage.
func New(keys []core.Key, cfg Config) (*Index, error) {
	if len(keys) == 0 {
		return nil, errors.New("rmi: empty key set")
	}
	if cfg.Stage1 == modelCubic || cfg.Stage2 == modelCubic {
		return nil, errors.New("rmi: the cubic model is retired")
	}
	return trainStage1(floatKeys(keys), cfg.Stage1, cfg.Branch).finish(cfg.Stage2)[0], nil
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
	// u is each key's stage-1 position scaled to leaves, which split
	// cuts into the leaf it routes to and the fraction that leaf reads;
	// first/last are the span of positions each leaf receives (both -1
	// for an empty leaf).
	u           []float64
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
// scales by B/n. It overwrites fkeys with the keys' u, which the
// routing keeps: key i is read once, before its u is written.
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
		u:     fkeys,
		first: make([]int, branch),
		last:  make([]int, branch),
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
			r.u[i] = r.top.stage1.predict(fkeys[i]) * r.top.scale
			li, _ := r.top.split(r.u[i])
			l0, l1 = min(l0, li), max(l1, li)
		}
		run := leafRun{leaf0: l0, spans: make([][2]int32, l1-l0+1)}
		for j := range run.spans {
			run.spans[j] = [2]int32{-1, -1}
		}
		for i := lo; i < hi; i++ {
			li, _ := r.top.split(r.u[i])
			s := &run.spans[li-l0]
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

// finish trains stage-2 leaves of each given kind over the routing, r
// unmodified, and returns one complete index a kind, in order. The kinds
// share each leaf's lo and one replay of the keys for their errors.
func (r *routed) finish(kinds ...ModelKind) []*Index {
	n, B := r.top.n, r.top.cfg.Branch
	// Each leaf's lo is the least first position at or after it, n past
	// the last (an empty leaf's -1 is past n as a uint): keys routed to an
	// empty leaf get valid bounds, and no stray key makes lo fall.
	lo := make([]int32, B+1)
	lo[B] = int32(n)
	for li := B - 1; li >= 0; li-- {
		lo[li] = int32(min(uint(lo[li+1]), uint(r.first[li])))
	}
	idxs := make([]*Index, len(kinds))
	for k, stage2 := range kinds {
		idx := r.top
		idx.cfg.Stage2 = stage2
		idxs[k] = &idx
		if stage2 == modelKnot {
			idx.knots = make([]knot, B) // a knot leaf has nothing to fit
			continue
		}
		idx.leaves = make([]leaf, B)
		// Fit each leaf on the fractions of the contiguous span of keys
		// it received; an empty leaf keeps its zero model, which predicts
		// lo. A fit on u is the fit on u − li moved by li: it normalises
		// by differences of u, which are the fractions' differences
		// exactly (Sterbenz: every u of leaf li ≥ 1 lies in [li, 2li]).
		// The fits are independent, and run chunk-wise, the leaves cut in
		// proportion to the keys' ranges.
		core.Parallel(n, func(_, from, to int) struct{} {
			for li := from * B / n; li < to*B/n; li++ {
				idx.leaves[li].lo = lo[li]
				if first, last := r.first[li], r.last[li]; first >= 0 {
					m := fitModel(stage2, r.u[first:last+1], float64(first))
					m.keyOff -= float64(li)
					idx.leaves[li].fold(&m)
				}
			}
			return struct{}{}
		})
	}

	// Error collection: replay every key through the lookup path, so the
	// bounds are exact for present keys by construction. Each range of
	// keys records the worst over- and under-prediction of every leaf it
	// reaches under each kind, merged by max in any order; it splits a
	// block of keys once, then replays it a kind at a time (one loop over
	// every kind a key ran slower).
	K := len(idxs)
	worst := core.Parallel(n, func(c, from, to int) [][2]int {
		leaf0, u, S := r.routes[c].leaf0, r.u, len(r.routes[c].spans)
		w := make([][2]int, K*S) // {pred-actual, actual-pred} by kind, then leaf
		lis, fs := [256]int{}, [256]float64{}
		for b := from; b < to; b += len(lis) {
			m := min(len(lis), to-b)
			for j := range m {
				lis[j], fs[j] = r.top.split(u[b+j])
			}
			for k, idx := range idxs {
				wk := w[k*S : (k+1)*S]
				for j, li := range lis[:m] {
					pos := 0
					if idx.leaves != nil { // leafPos's dispatch, inlined: a call per key slowed tuning 15 %
						pos = idx.leaves[li].pos(fs[j], lo[li+1])
					} else {
						pos = knotPos(lo[li], fs[j], lo[li+1])
					}
					d, i := &wk[li-leaf0], b+j
					d[0], d[1] = max(d[0], pos-i), max(d[1], i-pos)
				}
			}
		}
		return w
	})
	errs := make([][2]int, K*B) // by kind, then leaf
	for c, w := range worst {
		for j, d := range w {
			e := &errs[j/(len(w)/K)*B+r.routes[c].leaf0+j%(len(w)/K)]
			e[0], e[1] = max(e[0], d[0]), max(e[1], d[1])
		}
	}

	// A margin covers its worst error +1 for absent keys, coded in the
	// kind's layout. The paper's "log2 error" is the mean log2 of the
	// search-bound width, each leaf weighted by the keys it was trained
	// on (an empty leaf, first = last = -1, counts as one).
	for k, idx := range idxs {
		total, count := 0.0, 0.0
		for li := range B {
			e := errs[k*B+li]
			if idx.knots != nil {
				idx.knots[li] = knot{core.ToMargin(e[0] + 1), core.ToMargin(e[1] + 1), uint16(lo[li]), uint16(lo[li] >> 16)}
			} else {
				idx.leaves[li].errLo, idx.leaves[li].errHi = toMargin16(e[0]+1), toMargin16(e[1]+1)
			}
			_, errLo, errHi := idx.leafAt(li)
			occ := float64(r.last[li]-r.first[li]) + 1
			total += occ * math.Log2(float64(errLo+errHi+1)+1)
			count += occ
		}
		idx.avgLog2 = total / count
	}
	return idxs
}

// split cuts a scaled stage-1 position u into a leaf and its fraction.
func (idx *Index) split(u float64) (int, float64) {
	li := int(u)
	if uint(li) >= uint(idx.cfg.Branch) {
		li = min(max(li, 0), idx.cfg.Branch-1)
	}
	return li, u - float64(li)
}

// Lookup implements core.Index.
func (idx *Index) Lookup(key core.Key) core.Bound { return idx.Trace(key, nil) }

// stage1Array describes the stage-1 model, one element.
var stage1Array = core.Array{Name: "stage1", Elem: modelSizeBytes, Len: 1}

// leafArray describes the leaf array of b leaves of kind stage2 as
// memory holds it: its stride is what a lookup's leaf access loads.
func leafArray(stage2 ModelKind, b int) core.Array {
	a := core.Array{Name: "leaves", Elem: leafBytes, Len: b}
	if stage2 == modelKnot {
		a.Elem = knotBytes
	}
	return a
}

// Arrays describes the index: the stage-1 model, then the leaves.
func (idx *Index) Arrays() []core.Array {
	return []core.Array{stage1Array, leafArray(idx.cfg.Stage2, idx.cfg.Branch)}
}

// SizeBytes implements core.Index.
func (idx *Index) SizeBytes() int { return core.SizeOf(idx.Arrays()...) }

// Name implements core.Index.
func (idx *Index) Name() string { return "RMI" }

// leafAt returns leaf li's lo and its margins, whichever the layout.
func (idx *Index) leafAt(li int) (lo int32, errLo, errHi int) {
	if idx.knots != nil {
		return idx.knots[li].lo(), idx.knots[li].errLo.Value(), idx.knots[li].errHi.Value()
	}
	return idx.leaves[li].lo, idx.leaves[li].errLo.value(), idx.leaves[li].errHi.value()
}

// AvgLog2Error returns the mean log2 of the search-bound width over all
// keys' leaves, weighted by leaf occupancy — the paper's "log2 error"
// metric (expected binary-search steps).
func (idx *Index) AvgLog2Error() float64 { return idx.avgLog2 }

// Trace is Lookup's descent: a non-nil t sees the stage-1 model read
// and the leaf read, the path the performance-counter simulation
// replays.
func (idx *Index) Trace(key core.Key, t core.Tracer) core.Bound {
	leaf, pos, errLo, errHi := idx.leafPos(idx.stage1.predict(float64(key)) * idx.scale)
	if t != nil {
		trace(t, leaf, idx.cfg.Branch)
	}
	return core.BoundAround(pos, errLo, errHi, idx.n)
}

// leafPos splits u, stage 1's position scaled to leaves, into a leaf
// and its fraction, and returns the leaf, its prediction and its
// margins. The upper clamp is the next leaf's lo, and n past the last.
func (idx *Index) leafPos(u float64) (li, pos, errLo, errHi int) {
	li, f := idx.split(u)
	next := int32(idx.n)
	if idx.leaves != nil {
		if li+1 < len(idx.leaves) {
			next = idx.leaves[li+1].lo
		}
		return li, idx.leaves[li].pos(f, next), idx.leaves[li].errLo.value(), idx.leaves[li].errHi.value()
	}
	if li+1 < len(idx.knots) {
		next = idx.knots[li+1].lo()
	}
	return li, knotPos(idx.knots[li].lo(), f, next), idx.knots[li].errLo.Value(), idx.knots[li].errHi.Value()
}

// trace reports a lookup routed to leaf li of b: stage 1's
// coefficients, which fit one line, then leaf li and its successor,
// whose lo is the upper clamp — one line, or two where the pair
// straddles one; the last leaf has no successor to read.
func trace(t core.Tracer, li, b int) {
	t.Read(0, 0, 1)
	t.Work(8) // stage 1's prediction and the split into leaf and fraction
	t.Read(1, li, min(2, b-li))
	t.Work(10) // the leaf's prediction, its clamps and its margins
}
