package btree

// Binary codec for the B+tree index adapter. Unlike the learned
// families there are no trained parameters to preserve: the tree's
// entire state is its subset keys, so Encode writes them as (subset
// key, data position) entries and Decode bulk-loads a fresh tree from
// the keys — a single linear pass, not a retrain. The tree stores no
// positions (entry r is data key r*stride), so Decode only checks the
// ones on the wire. Little-endian via binio; framing and checksums live
// in persist.

import (
	"repro/internal/binio"
	"repro/internal/core"
)

const entryWireBytes = 8 + 4

// Encode writes the index (tree entries plus the adapter's stride
// metadata) to w.
func (idx *Index) Encode(w *binio.Writer) error {
	w.U64(uint64(idx.n))
	w.U32(uint32(idx.stride))
	interp := uint8(0)
	if idx.tree.interpolate {
		interp = 1
	}
	w.U8(interp)
	keys := idx.tree.levels[0]
	w.U32(uint32(len(keys)))
	for r, k := range keys {
		w.U64(uint64(k))
		w.U32(uint32(r * idx.stride))
	}
	return w.Err()
}

// Decode reconstructs the index from r by bulk-loading the entries.
// Entries must be sorted, one per stride of the n data keys, with entry
// r at position r*stride: Lookup turns ranks directly into search-bound
// endpoints.
func Decode(r *binio.Reader) (*Index, error) {
	n := r.U64()
	stride := int(r.U32())
	interp := r.U8()
	count := r.Count(entryWireBytes)
	if err := r.Err(); err != nil {
		return nil, err
	}
	const maxN = 1 << 48
	if n == 0 || n > maxN {
		return nil, binio.Corruptf("btree: implausible key count %d", n)
	}
	if stride < 1 || interp > 1 {
		return nil, binio.Corruptf("btree: stride %d, interp flag %d", stride, interp)
	}
	if want := (n + uint64(stride) - 1) / uint64(stride); uint64(count) != want {
		return nil, binio.Corruptf("btree: %d entries, want %d for %d keys at stride %d", count, want, n, stride)
	}
	// Count has checked that every entry's bytes are there.
	keys := make([]core.Key, count)
	for i := range keys {
		keys[i] = r.U64()
		if pos := r.U32(); pos != uint32(i*stride) {
			return nil, binio.Corruptf("btree: entry %d at position %d, not %d", i, pos, i*stride)
		}
		if i > 0 && keys[i] < keys[i-1] {
			return nil, binio.Corruptf("btree: entries out of order at %d", i)
		}
	}
	return &Index{tree: NewTree(keys, interp == 1), n: int(n), stride: stride}, nil
}
