package pgm

import (
	"math"
	"slices"

	"repro/internal/binio"
	"repro/internal/core"
)

// Encode writes the built index to w: eps, n and the level count, then
// the arrays Arrays describes as memory holds them, a level's segment
// count only before its keys, so Decode needs no segment corridor.
func (idx *Index) Encode(w *binio.Writer) error {
	w.U32(uint32(idx.eps))
	w.U64(uint64(idx.n))
	w.U32(uint32(len(idx.levels)))
	for _, l := range idx.levels {
		binio.PutSlice(w, l.keys)
		w.Bytes(binio.Wire(l.slopes))
		w.Bytes(binio.Wire(l.pos))
	}
	w.Bytes(binio.Wire(idx.margins))
	return w.Err()
}

// Decode reconstructs a built index from r without refitting.
func Decode(r *binio.Reader) (*Index, error) {
	idx := &Index{eps: int(r.U32()), n: int(r.U64())}
	idx.levels = make([]level, r.Count(4+segmentBytes)) // every level carries >=1 segment
	for i := range idx.levels {
		keys := binio.GetSlice[core.Key](r)
		idx.levels[i] = level{keys, binio.GetArray[float32](r, len(keys)), binio.GetArray[int32](r, len(keys))}
	}
	if len(idx.levels) > 0 {
		idx.margins = binio.GetArray[core.Margin](r, 2*len(idx.levels[0].keys))
	}
	return binio.Checked(r, idx, idx.validate)
}

// validate re-checks what the descent relies on: every level is
// non-empty with non-decreasing keys and finite, non-negative slopes,
// its positions run non-decreasing from 0 and stay below the size of
// the level beneath (n for the data level), and no margin's excess over
// eps+1 passes n + n>>3, which no true one rounds above.
func (idx *Index) validate() error {
	if idx.n < 1 || idx.n > 1<<48 || idx.eps < 1 || len(idx.levels) < 1 {
		return binio.Corruptf("pgm: %d keys, eps %d, levels %d", idx.n, idx.eps, len(idx.levels))
	}
	below := idx.n
	for li, l := range idx.levels {
		m := len(l.keys)
		if m < 1 || l.pos[0] != 0 || int(l.pos[m-1]) >= below || !slices.IsSorted(l.keys) || !slices.IsSorted(l.pos) ||
			slices.ContainsFunc(l.slopes, func(s float32) bool { return !(s >= 0 && s <= math.MaxFloat32) }) {
			return binio.Corruptf("pgm: level %d of %d segments over a level of %d: empty, out of order, or a slope not finite and >= 0", li, m, below)
		}
		below = m
	}
	if slices.Max(idx.margins).Value() > idx.n+idx.n>>3 {
		return binio.Corruptf("pgm: a margin's excess over %d keys exceeds %d", idx.n, idx.n+idx.n>>3)
	}
	return nil
}
