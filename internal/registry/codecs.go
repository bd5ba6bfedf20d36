package registry

// The codec catalog: families that can serialize their built indexes
// register an encode/decode pair here, keyed by family name — the tag
// stored in snapshot manifests. Decode reconstructs a ready core.Index
// from trained parameters without retraining, which is what makes warm
// restarts skip the (for learned families, dominant) build cost.
// Families without a codec still snapshot: the persistence layer falls
// back to recording the key data only and rebuilding the index at load.

import (
	"fmt"

	"repro/internal/binio"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/pgm"
	"repro/internal/rbs"
	"repro/internal/rmi"
	"repro/internal/rs"
)

// Codec serializes one family's built indexes. Encode writes the index
// state (trained model parameters, tables, tree entries) to w; Decode
// reconstructs a ready index, validating every structural invariant so
// corrupt input yields an error, never a panic or unbounded allocation.
type Codec struct {
	Encode func(idx core.Index, w *binio.Writer) error
	Decode func(r *binio.Reader) (core.Index, error)
}

var codecs = map[string]Codec{}

// registerCodec adds a family's codec to the catalog, panicking on nil
// hooks or duplicates (catalog assembly is init-time, where failing
// loudly is the only useful behaviour).
func registerCodec(family string, c Codec) {
	if c.Encode == nil || c.Decode == nil {
		panic(fmt.Sprintf("registry: incomplete codec for family %q", family))
	}
	if _, dup := codecs[family]; dup {
		panic(fmt.Sprintf("registry: duplicate codec for family %q", family))
	}
	codecs[family] = c
}

// CodecFor returns the codec registered for a family; ok is false when
// the family has none (the rebuild-at-load fallback applies).
func CodecFor(family string) (Codec, bool) {
	c, ok := codecs[family]
	return c, ok
}

// codecOf is the codec of a family whose index type T encodes itself
// and whose package exports decode. Encode fails cleanly when handed an
// index of the wrong dynamic type (e.g. a manifest tag edited to name
// the wrong family). Decode returns a nil interface on error: a failed
// decode's concrete nil pointer, returned through the interface, would
// read as non-nil to callers.
func codecOf[T interface {
	core.Index
	Encode(*binio.Writer) error
}](decode func(*binio.Reader) (T, error)) Codec {
	return Codec{
		Encode: func(idx core.Index, w *binio.Writer) error {
			t, ok := idx.(T)
			if !ok {
				return fmt.Errorf("registry: index %s has type %T, not the registered codec's", idx.Name(), idx)
			}
			return t.Encode(w)
		},
		Decode: func(r *binio.Reader) (core.Index, error) {
			idx, err := decode(r)
			if err != nil {
				return nil, err
			}
			return idx, nil
		},
	}
}

func init() {
	registerCodec("RMI", codecOf(rmi.Decode))
	registerCodec("PGM", codecOf(pgm.Decode))
	registerCodec("RS", codecOf(rs.Decode))
	registerCodec("RBS", codecOf(rbs.Decode))
	// BTree and IBTree share one implementation (and so one decoder,
	// which restores the in-node search flavour from the encoded flag);
	// both tags are registered so manifests stay self-describing.
	registerCodec("BTree", codecOf(btree.Decode))
	registerCodec("IBTree", codecOf(btree.Decode))
}
