package btree

import (
	"slices"

	"repro/internal/binio"
	"repro/internal/core"
)

// Encode writes the index to w: the header scalars, then the tree's
// bottom level, its subset keys, as memory holds them. Decode
// bulk-loads the levels above from them in one pass.
func (idx *Index) Encode(w *binio.Writer) error {
	w.U64(uint64(idx.n))
	w.U32(uint32(idx.stride))
	interp := uint8(0)
	if idx.tree.interpolate {
		interp = 1
	}
	w.U8(interp)
	binio.PutSlice(w, idx.tree.levels[0])
	return w.Err()
}

// Decode reconstructs the index from r by bulk-loading its keys.
func Decode(r *binio.Reader) (*Index, error) {
	idx := &Index{n: int(r.U64()), stride: int(r.U32())}
	interp := r.U8()
	idx.tree = NewTree(binio.GetSlice[core.Key](r), interp == 1)
	return binio.Checked(r, idx, func() error { return idx.validate(interp) })
}

// validate re-checks what Lookup leans on: it turns the rank r of a key
// in the tree into the data position r*stride, so there is one sorted
// key per stride of the n data keys.
func (idx *Index) validate(interp uint8) error {
	n, stride, keys := idx.n, idx.stride, idx.tree.levels[0]
	if n < 1 || n > 1<<48 || stride < 1 || interp > 1 {
		return binio.Corruptf("btree: %d keys, stride %d, interp flag %d", n, stride, interp)
	}
	if want := (n + stride - 1) / stride; len(keys) != want || !slices.IsSorted(keys) {
		return binio.Corruptf("btree: %d entries, want %d sorted for %d keys at stride %d", len(keys), want, n, stride)
	}
	return nil
}
