package btree

// Binary codec for the B+tree index adapter. Unlike the learned
// families there are no trained parameters to preserve: the tree's
// entire state is its (subset key, data position) entries, so Encode
// walks the leaf chain and Decode bulk-loads a fresh tree from the
// entries — a single linear pass, not a retrain (the subset-stride
// selection, the only data-dependent choice, is preserved verbatim).
// Little-endian via binio; framing and checksums live in persist.

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
	if idx.name == "IBTree" {
		interp = 1
	}
	w.U8(interp)
	w.U32(uint32(idx.tree.count))
	nd := idx.tree.root
	for !nd.isLeaf() {
		nd = nd.children[0]
	}
	for ; nd != nil; nd = nd.next {
		for i := range nd.keys {
			w.U64(uint64(nd.keys[i]))
			w.U32(uint32(nd.vals[i]))
		}
	}
	return w.Err()
}

// Decode reconstructs the index from r by bulk-loading the entries.
// Entries must be sorted with positions inside [0, n): Lookup turns
// positions directly into search-bound endpoints.
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
	if count < 1 {
		return nil, binio.Corruptf("btree: no entries")
	}
	keys := make([]core.Key, count)
	vals := make([]int32, count)
	for i := 0; i < count; i++ {
		keys[i] = r.U64()
		vals[i] = int32(r.U32())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	for i := 0; i < count; i++ {
		if i > 0 && keys[i] < keys[i-1] {
			return nil, binio.Corruptf("btree: entries out of order at %d", i)
		}
		if vals[i] < 0 || uint64(vals[i]) >= n {
			return nil, binio.Corruptf("btree: entry %d position %d outside data [0,%d)", i, vals[i], n)
		}
	}
	t, err := NewTree(keys, vals, interp == 1)
	if err != nil {
		return nil, binio.Corruptf("btree: %v", err)
	}
	name := "BTree"
	if interp == 1 {
		name = "IBTree"
	}
	return &Index{tree: t, n: int(n), stride: stride, name: name}, nil
}
