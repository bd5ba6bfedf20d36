package rmi

// Binary codec for trained RMIs: Encode serializes the full model state
// (architecture, stage-1 model, per-leaf models and verified error
// margins) so Decode can reconstruct a ready index without re-running
// the trainer or the tuner — the point of snapshot-based cold starts.
// The wire layout is little-endian via binio; framing, versioning and
// checksums are the caller's job (package persist).
//
// The payload opens with a layout byte, the stride of the B leaf
// records that follow, each written as memory holds it. The last
// leaf's upper clamp is the key count in the header.

import (
	"math"

	"repro/internal/binio"
	"repro/internal/core"
)

// The strides of the layouts before a leaf read stage 1's fraction, a
// linear leaf with a float64 key origin and a cubic leaf padded to a
// line, each with its own upper clamp. Decode names them.
const retiredLeafBytes, retiredCubicLeafBytes = 24, 64

func (p *poly) encode(w *binio.Writer) {
	w.F64(p.keyOff)
	w.F64(p.keyScale)
	w.F64(p.c0)
	w.F64(p.c1)
	w.F64(p.c2)
	w.F64(p.c3)
}

func decodePoly(r *binio.Reader) poly {
	return poly{r.FiniteF64(), r.FiniteF64(), r.FiniteF64(), r.FiniteF64(), r.FiniteF64(), r.FiniteF64()}
}

func decodeModel(r *binio.Reader) (model, error) {
	k := r.U8()
	if k > uint8(modelRadix) {
		return model{}, binio.Corruptf("rmi: unknown model kind %d", k)
	}
	return model{ModelKind(k), decodePoly(r)}, r.Err()
}

// Encode writes the trained index to w. The output is exactly what
// Decode consumes; it carries no framing or checksum of its own.
func (idx *Index) Encode(w *binio.Writer) error {
	w.U8(uint8(leafArray(idx.cfg.Stage2, idx.cfg.Branch).Elem))
	w.U8(uint8(idx.cfg.Stage1))
	w.U8(uint8(idx.cfg.Stage2))
	w.U64(uint64(idx.n))
	w.F64(idx.avgLog2)
	w.U8(uint8(idx.stage1.kind))
	idx.stage1.poly.encode(w)
	w.U32(uint32(idx.cfg.Branch))
	for i := range idx.leaves {
		w.U32(math.Float32bits(idx.leaves[i].fOff))
		w.U32(math.Float32bits(idx.leaves[i].slope))
		idx.leaves[i].clamps.encode(w)
	}
	for i := range idx.cubics {
		idx.cubics[i].poly.encode(w)
		idx.cubics[i].clamps.encode(w)
	}
	for i := range idx.knots {
		idx.knots[i].encode(w)
	}
	return w.Err()
}

func (c *clamps) encode(w *binio.Writer) {
	w.U32(uint32(c.lo))
	w.U32(uint32(c.errLo) | uint32(c.errHi)<<16)
}

// decodeClamps re-validates what the lookup path leans on: pos returns
// a value from lo to the next leaf's lo − 1 (n − 1 past the last leaf),
// and BoundAround only clamps the final bound, so positions outside the
// data would survive into it. lo runs from 0, the least position, up to
// at most n without falling. No true margin exceeds n, so none rounds
// above n + n>>10.
func decodeClamps(r *binio.Reader, li int, prev int32, n uint64) clamps {
	c := clamps{lo: int32(r.U32())}
	errs := r.U32()
	c.errLo, c.errHi = core.Margin(errs), core.Margin(errs>>16)
	if c.lo < prev || li == 0 && c.lo > 0 || uint64(c.lo) > n || uint64(max(c.errLo, c.errHi).Value()) > n+n>>10 {
		r.Fail(binio.Corruptf("rmi: leaf %d lo %d after %d and margins (%d,%d) impossible over %d keys", li, c.lo, prev, c.errLo.Value(), c.errHi.Value(), n))
	}
	return c
}

// Decode reconstructs a trained index from r without retraining. Every
// structural invariant the lookup path relies on is re-validated, so a
// corrupted input yields an error, never a panic or an oversized
// allocation.
func Decode(r *binio.Reader) (*Index, error) {
	layout := int(r.U8())
	var cfg Config
	cfg.Stage1 = ModelKind(r.U8())
	cfg.Stage2 = ModelKind(r.U8())
	n := r.U64()
	avgLog2 := r.FiniteF64()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if cfg.Stage1 > modelRadix || cfg.Stage2 > modelKnot {
		return nil, binio.Corruptf("rmi: unknown stage model kind")
	}
	if layout == retiredLeafBytes || layout == retiredCubicLeafBytes {
		return nil, binio.Corruptf("rmi: leaf stride %d is a retired layout, whose leaves keep their own upper clamp; rebuild the index", layout)
	}
	if int(layout) != leafArray(cfg.Stage2, 0).Elem {
		return nil, binio.Corruptf("rmi: leaf layout %d does not match stage-2 kind %v", layout, cfg.Stage2)
	}
	const maxN = 1 << 48 // far beyond any in-memory array
	if n == 0 || n > maxN || avgLog2 < 0 {
		return nil, binio.Corruptf("rmi: implausible key count %d or log2 error %v", n, avgLog2)
	}
	stage1, err := decodeModel(r)
	if err != nil {
		return nil, err
	}
	branch := r.Count(layout)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if branch < 1 {
		return nil, binio.Corruptf("rmi: zero leaves")
	}
	cfg.Branch = branch
	idx := &Index{cfg: cfg, n: int(n), stage1: stage1, scale: float64(branch) / float64(n), avgLog2: avgLog2}
	idx.makeLeaves()
	prev := int32(0)
	for i := 0; i < branch && r.Err() == nil; i++ {
		switch {
		case idx.cubics != nil:
			idx.cubics[i].poly = decodePoly(r)
		case idx.leaves != nil:
			lf := &idx.leaves[i]
			lf.fOff, lf.slope = math.Float32frombits(r.U32()), math.Float32frombits(r.U32())
			if !(lf.slope >= 0 && lf.slope <= math.MaxFloat32 && math.Abs(float64(lf.fOff)) <= math.MaxFloat32) { // pos must stay monotone in the fraction
				r.Fail(binio.Corruptf("rmi: slope %v or fraction origin %v in leaf %d", lf.slope, lf.fOff, i))
			}
		}
		c := idx.clampsOf(i)
		*c = decodeClamps(r, i, prev, n)
		prev = c.lo
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() == layout {
		return nil, binio.Corruptf("rmi: a leaf record past leaf %d is the retired layout with a sentinel leaf; rebuild the index", branch-1)
	}
	return idx, nil
}
