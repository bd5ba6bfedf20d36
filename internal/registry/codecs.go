package registry

// The codec catalog: a family whose built indexes persist maps here,
// by the family name stored in snapshot manifests and index frames, to
// the decoder of its payload; the index writes that payload itself,
// through its Encode method. Decode reconstructs a ready core.Index
// from the arrays without retraining, which is what makes warm restarts
// skip the (for learned families, dominant) build cost. Families
// without a codec still snapshot: the persistence layer records the
// key data only and rebuilds the index at load.

import (
	"repro/internal/binio"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/pgm"
	"repro/internal/rbs"
	"repro/internal/rmi"
	"repro/internal/rs"
)

// decoders maps each codec family to its payload decoder. BTree and
// IBTree share one, which restores the in-node search flavour from the
// payload; both tags are here so manifests stay self-describing.
var decoders = map[string]func(*binio.Reader) (core.Index, error){
	"RMI":    asIndex(rmi.Decode),
	"PGM":    asIndex(pgm.Decode),
	"RS":     asIndex(rs.Decode),
	"RBS":    asIndex(rbs.Decode),
	"BTree":  asIndex(btree.Decode),
	"IBTree": asIndex(btree.Decode),
}

// asIndex returns decode with a nil interface on error: a failed
// decode's concrete nil pointer, returned through the interface, would
// read as non-nil to callers.
func asIndex[T core.Index](decode func(*binio.Reader) (T, error)) func(*binio.Reader) (core.Index, error) {
	return func(r *binio.Reader) (core.Index, error) {
		idx, err := decode(r)
		if err != nil {
			return nil, err
		}
		return idx, nil
	}
}

// CodecFor returns the decoder of a family's payloads; ok is false when
// the family has none (the rebuild-at-load fallback applies).
func CodecFor(family string) (decode func(*binio.Reader) (core.Index, error), ok bool) {
	decode, ok = decoders[family]
	return decode, ok
}
