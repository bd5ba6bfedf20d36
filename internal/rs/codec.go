package rs

// Binary codec for built RadixSpline indexes: spline points, radix
// table and verified margins are serialized so Decode reconstructs a
// ready index without re-fitting the spline. Little-endian via binio;
// framing and checksums live in package persist.

import (
	"repro/internal/binio"
	"repro/internal/core"
)

const pointWireBytes = 8 + 4

// Encode writes the built index to w.
func (idx *Index) Encode(w *binio.Writer) error {
	w.U32(uint32(idx.cfg.SplineErr))
	w.U32(uint32(idx.cfg.RadixBits))
	w.U64(uint64(idx.n))
	w.U64(idx.minKey)
	w.U32(uint32(idx.shift))
	w.U32(uint32(idx.errLo))
	w.U32(uint32(idx.errHi))
	w.U32(uint32(len(idx.keys)))
	for i, k := range idx.keys {
		w.U64(k)
		w.U32(uint32(idx.pos[i]))
	}
	w.U32(uint32(1<<idx.cfg.RadixBits + 1))
	idx.exactRadix(func(_ int, v uint32) { w.U32(v) })
	return w.Err()
}

// Decode reconstructs a built index from r. The wire carries the exact
// radix table, which Encode re-derives from the spline points; Decode
// accepts only that table, entry for entry, and then stores it at the
// width New does. A table that differed would index points a different
// Encode would not write back, and one out of bounds would turn into an
// out-of-range access in segmentFor.
func Decode(r *binio.Reader) (*Index, error) {
	var cfg Config
	cfg.SplineErr = int(r.U32())
	cfg.RadixBits = int(r.U32())
	n := r.U64()
	minKey := r.U64()
	shift := r.U32()
	errLo := int(r.U32())
	errHi := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	const maxN = 1 << 48
	if n == 0 || n > maxN {
		return nil, binio.Corruptf("rs: implausible key count %d", n)
	}
	if cfg.RadixBits < 1 || cfg.RadixBits > 28 || cfg.SplineErr < 1 {
		return nil, binio.Corruptf("rs: config eps=%d r=%d out of range", cfg.SplineErr, cfg.RadixBits)
	}
	if shift > 63 {
		return nil, binio.Corruptf("rs: shift %d", shift)
	}
	if errLo < 0 || errHi < 0 {
		return nil, binio.Corruptf("rs: negative margins")
	}
	nPoints := r.Count(pointWireBytes)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nPoints < 1 {
		return nil, binio.Corruptf("rs: no spline points")
	}
	idx := &Index{cfg: cfg, n: int(n), minKey: minKey, shift: uint(shift), lastBucket: 1<<cfg.RadixBits - 1, errLo: errLo, errHi: errHi}
	idx.keys, idx.pos = make([]core.Key, nPoints), make([]int32, nPoints)
	for i := range idx.keys {
		idx.keys[i] = r.U64()
		idx.pos[i] = int32(r.U32())
	}
	nRadix := r.Count(4)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nRadix != 1<<cfg.RadixBits+1 {
		return nil, binio.Corruptf("rs: radix table has %d entries, want %d", nRadix, 1<<cfg.RadixBits+1)
	}
	var bad error
	idx.exactRadix(func(p int, want uint32) {
		if v := r.U32(); v != want && bad == nil {
			bad = binio.Corruptf("rs: radix entry %d = %d, the spline points give %d", p, v, want)
		}
	})
	if err := r.Err(); err != nil {
		return nil, err
	}
	if bad != nil {
		return nil, bad
	}
	idx.radixShift = radixShiftFor(nPoints)
	idx.setRadix()
	return idx, nil
}
