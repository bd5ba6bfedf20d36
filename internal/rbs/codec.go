package rbs

import (
	"slices"

	"repro/internal/binio"
)

// Encode writes the built table to w: the header scalars, then the
// table as memory holds it.
func (idx *Index) Encode(w *binio.Writer) error {
	w.U32(uint32(idx.radixBits))
	w.U64(uint64(idx.n))
	w.U64(idx.minKey)
	w.U32(uint32(idx.shift))
	binio.PutSlice(w, idx.table)
	return w.Err()
}

// Decode reconstructs a built table from r and validates it.
func Decode(r *binio.Reader) (*Index, error) {
	idx := &Index{radixBits: int(r.U32()), n: int(r.U64()), minKey: r.U64(), shift: uint(r.U32())}
	idx.table = binio.GetSlice[int32](r)
	return binio.Checked(r, idx, idx.validate)
}

// validate re-checks what Lookup leans on: it turns two adjacent
// entries directly into a search bound, so the table has 2^r+1 entries,
// non-decreasing and confined to [0, n].
func (idx *Index) validate() error {
	if idx.n < 1 || idx.n > 1<<48 || idx.radixBits < 1 || idx.radixBits > 28 || idx.shift > 63 {
		return binio.Corruptf("rbs: %d keys, radix bits %d, shift %d", idx.n, idx.radixBits, idx.shift)
	}
	if t := idx.table; len(t) != 1<<idx.radixBits+1 || t[0] < 0 || int(t[len(t)-1]) > idx.n || !slices.IsSorted(t) {
		return binio.Corruptf("rbs: table of %d entries, want %d non-decreasing over [0, %d]", len(t), 1<<idx.radixBits+1, idx.n)
	}
	return nil
}
