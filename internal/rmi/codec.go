package rmi

import (
	"math"

	"repro/internal/binio"
)

// Encode writes the trained index to w: the architecture, the key
// count, the log2 error and the stage-1 model, then the leaf array as
// memory holds it, so Decode needs neither trainer nor tuner.
func (idx *Index) Encode(w *binio.Writer) error {
	w.U8(uint8(idx.cfg.Stage1))
	w.U8(uint8(idx.cfg.Stage2))
	w.U64(uint64(idx.n))
	w.F64(idx.avgLog2)
	w.U8(uint8(idx.stage1.kind))
	for _, v := range [...]float64{idx.stage1.keyOff, idx.stage1.keyScale, idx.stage1.c0, idx.stage1.c1, idx.stage1.c2, idx.stage1.c3} {
		w.F64(v)
	}
	if idx.knots != nil {
		binio.PutSlice(w, idx.knots)
	} else {
		binio.PutSlice(w, idx.leaves)
	}
	return w.Err()
}

// Decode reconstructs a trained index from r without retraining.
func Decode(r *binio.Reader) (*Index, error) {
	idx := &Index{cfg: Config{Stage1: ModelKind(r.U8()), Stage2: ModelKind(r.U8())}, n: int(r.U64()), avgLog2: r.FiniteF64()}
	idx.stage1 = model{ModelKind(r.U8()), poly{r.FiniteF64(), r.FiniteF64(), r.FiniteF64(), r.FiniteF64(), r.FiniteF64(), r.FiniteF64()}}
	if idx.cfg.Stage2 == modelKnot {
		idx.knots = binio.GetSlice[knot](r)
	} else {
		idx.leaves = binio.GetSlice[leaf](r)
	}
	idx.cfg.Branch = len(idx.leaves) + len(idx.knots)
	idx.scale = float64(idx.cfg.Branch) / float64(idx.n)
	return binio.Checked(r, idx, idx.validate)
}

// validate re-checks what the lookup path leans on: a leaf's slope is
// finite and not negative and its fraction origin finite, so pos stays
// monotone in the fraction, and lo runs from 0 up to at most n without
// falling, so pos stays in the data; no true margin rounds above
// n + n>>3. A stage 1 is a line, whose c2 and c3 are zero; the retired
// cubic kind is refused by name.
func (idx *Index) validate() error {
	cfg, n, s1 := idx.cfg, idx.n, idx.stage1
	if cfg.Stage1 == modelCubic || s1.kind == modelCubic {
		return binio.Corruptf("rmi: a cubic stage 1, a retired model kind: rebuild the index")
	}
	if cfg.Stage1 > modelRadix || cfg.Stage2 > modelKnot || cfg.Stage2 == modelCubic || s1.kind > modelRadix || s1.c2 != 0 || s1.c3 != 0 {
		return binio.Corruptf("rmi: model kinds %d and %d, stage-1 fit %d with c2 %v, c3 %v", cfg.Stage1, cfg.Stage2, s1.kind, s1.c2, s1.c3)
	}
	if n < 1 || n > 1<<48 || idx.avgLog2 < 0 || cfg.Branch < 1 {
		return binio.Corruptf("rmi: %d keys, log2 error %v, %d leaves", n, idx.avgLog2, cfg.Branch)
	}
	prev := int32(0)
	for i := range cfg.Branch {
		if lf := idx.leaves; lf != nil && !(lf[i].slope >= 0 && lf[i].slope <= math.MaxFloat32 && math.Abs(float64(lf[i].fOff)) <= math.MaxFloat32) {
			return binio.Corruptf("rmi: slope %v or fraction origin %v in leaf %d", lf[i].slope, lf[i].fOff, i)
		}
		lo, errLo, errHi := idx.leafAt(i)
		if lo < prev || i == 0 && lo > 0 || int(lo) > n || max(errLo, errHi) > n+n>>3 {
			return binio.Corruptf("rmi: leaf %d lo %d after %d and margins (%d,%d) impossible over %d keys", i, lo, prev, errLo, errHi, n)
		}
		prev = lo
	}
	return nil
}
