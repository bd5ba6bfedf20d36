package rs

import (
	"slices"

	"repro/internal/binio"
	"repro/internal/core"
)

// Encode writes the built index to w: the header scalars, then the
// spline points' keys and positions and the radix table's base and
// fine arrays as memory holds them.
func (idx *Index) Encode(w *binio.Writer) error {
	w.U32(uint32(idx.cfg.SplineErr))
	w.U32(uint32(idx.cfg.RadixBits))
	w.U32(uint32(idx.shift))
	w.U32(uint32(idx.errLo))
	w.U32(uint32(idx.errHi))
	w.U64(uint64(idx.n))
	w.U64(idx.minKey)
	binio.PutSlice(w, idx.keys)
	binio.PutSlice(w, idx.pos)
	binio.PutSlice(w, idx.base)
	binio.PutSlice(w, idx.fine)
	return w.Err()
}

// Decode reconstructs a built index from r without refitting.
func Decode(r *binio.Reader) (*Index, error) {
	idx := &Index{cfg: Config{SplineErr: int(r.U32()), RadixBits: int(r.U32())}, shift: uint(r.U32()), errLo: int(r.U32()), errHi: int(r.U32())}
	idx.n, idx.minKey = int(r.U64()), r.U64()
	idx.keys, idx.pos = binio.GetSlice[core.Key](r), binio.GetSlice[int32](r)
	idx.base, idx.fine = binio.GetSlice[uint16](r), binio.GetSlice[uint8](r)
	idx.lastBucket, idx.radixShift = 1<<idx.cfg.RadixBits-1, radixShiftFor(len(idx.keys))
	return binio.Checked(r, idx, idx.validate)
}

// validate re-checks what the lookup path leans on: a shift within the
// word, margins that are positions, at least one spline point, each a
// key and a position, and the radix table the points give, which it
// rebuilds only once the wire has carried as many entries, so a small
// payload cannot make it build a large one.
func (idx *Index) validate() error {
	if idx.n < 1 || idx.n > 1<<48 || idx.cfg.RadixBits < 1 || idx.cfg.RadixBits > 28 || idx.cfg.SplineErr < 1 || idx.shift > 63 || idx.errLo < 0 || idx.errHi < 0 {
		return binio.Corruptf("rs: %d keys, eps=%d r=%d, shift %d, margins (%d,%d)", idx.n, idx.cfg.SplineErr, idx.cfg.RadixBits, idx.shift, idx.errLo, idx.errHi)
	}
	if len(idx.keys) < 1 || len(idx.pos) != len(idx.keys) {
		return binio.Corruptf("rs: %d spline keys, %d positions", len(idx.keys), len(idx.pos))
	}
	base, fine := idx.base, idx.fine
	if len(base)+len(fine) < 1<<idx.cfg.RadixBits+2 {
		return binio.Corruptf("rs: a radix table of %d+%d entries, under 2^%d", len(base), len(fine), idx.cfg.RadixBits)
	}
	if idx.setRadix(); !slices.Equal(base, idx.base) || !slices.Equal(fine, idx.fine) {
		return binio.Corruptf("rs: the radix table is not the one %d points give at r=%d", len(idx.keys), idx.cfg.RadixBits)
	}
	return nil
}
