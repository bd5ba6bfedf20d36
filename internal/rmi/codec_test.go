package rmi

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/binio"
	"repro/internal/core"
	"repro/internal/dataset"
)

func encoded(t *testing.T, idx *Index) []byte {
	t.Helper()
	w := binio.NewWriter(nil)
	if err := idx.Encode(w); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), w.Buffered()...)
}

// TestCodecRoundTripAndFlips: both leaf layouts decode to the index that
// was encoded, field for field, and every single-byte corruption of the
// payload decodes to an error or to an index whose lookups stay inside
// the data — the invariants pos and route lean on are re-validated, not
// trusted.
func TestCodecRoundTripAndFlips(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Wiki, 3000, 1)
	extremes := []core.Key{0, 1, keys[0], keys[len(keys)/2], keys[len(keys)-1], 1 << 40, ^core.Key(0)}
	for _, cfg := range []Config{
		{modelRadix, ModelLinear, 64},
		{ModelCubic, ModelLinearSpline, 64},
		{ModelLinear, ModelCubic, 64},
	} {
		idx, err := New(keys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		data := encoded(t, idx)
		got, err := Decode(binio.NewReader(data))
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if !reflect.DeepEqual(got, idx) {
			t.Fatalf("%v: decoded index differs from the encoded one", cfg)
		}
		for pos := range data {
			for _, mask := range []byte{0x01, 0x80, 0xff} {
				mut := append([]byte(nil), data...)
				mut[pos] ^= mask
				bad, err := Decode(binio.NewReader(mut))
				if err != nil {
					continue
				}
				for _, x := range extremes {
					if b := bad.Lookup(x); b.Lo < 0 || b.Lo > b.Hi || b.Hi > bad.n {
						t.Fatalf("%v: byte %d ^ %#x decoded to an index with bound %v for key %d (n = %d)", cfg, pos, mask, b, x, bad.n)
					}
				}
			}
		}
	}
}

// TestDecodeRejectsBrokenInvariants names the corruptions the flip sweep
// cannot tell from a survivable one: each must be an error.
func TestDecodeRejectsBrokenInvariants(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 3000, 1)
	idx, err := New(keys, Config{modelRadix, ModelLinear, 8})
	if err != nil {
		t.Fatal(err)
	}
	data := encoded(t, idx)
	// Offsets into the payload: layout, kinds, n, log2 error, the
	// stage-1 model, the leaf count, then leaf 0.
	const (
		avgLog2 = 1 + 2 + 8
		leaf0   = avgLog2 + 8 + (1 + 6*8) + 4
		slope   = leaf0 + 8
		lo      = slope + 4
		hi      = lo + 4
		errs    = hi + 4
	)
	for name, corrupt := range map[string]func(b []byte){
		"cubic layout byte on a linear stage 2": func(b []byte) { b[0] = cubicLeafBytes },
		"cubic stage 2 on the linear layout":    func(b []byte) { b[2] = byte(ModelCubic) },
		"negative log2 error":                   func(b []byte) { b[avgLog2+7] |= 0x80 },
		"negative slope":                        func(b []byte) { b[slope+3] |= 0x80 },
		"NaN slope":                             func(b []byte) { b[slope+2], b[slope+3] = 0xc0, 0x7f },
		"infinite slope":                        func(b []byte) { copy(b[slope:], []byte{0, 0, 0x80, 0x7f}) },
		"infinite key origin":                   func(b []byte) { copy(b[leaf0:], []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f}) },
		"lo above hi":                           func(b []byte) { b[lo+2] = 0x7f },
		"hi beyond the data":                    func(b []byte) { b[hi+2] = 0x7f },
		"negative lo":                           func(b []byte) { b[lo+3], b[hi+3] = 0x80, 0x80 },
		"low margin far above n":                func(b []byte) { b[errs], b[errs+1] = 0xff, 0xff },
		"high margin far above n":               func(b []byte) { b[errs+2], b[errs+3] = 0xff, 0xff },
		"one leaf more than the payload holds":  func(b []byte) { b[leaf0-4]++ },
	} {
		mut := append([]byte(nil), data...)
		corrupt(mut)
		if got, err := Decode(binio.NewReader(mut)); err == nil || got != nil {
			t.Errorf("%s: decoded to (%v, %v), want an error", name, got != nil, err)
		}
	}
}

// TestDecodeRejectsTaggedLeafPayload: a payload in the layout that
// preceded the folded leaf (stage-1 kind first, a tagged seven-word
// model per leaf) opens with no leaf stride, so the structural checks
// refuse it as corrupt; it is never read as the current layout.
func TestDecodeRejectsTaggedLeafPayload(t *testing.T) {
	for s1 := ModelLinear; s1 <= modelRadix; s1++ {
		w := binio.NewWriter(nil)
		w.U8(uint8(s1))          // cfg.Stage1
		w.U8(uint8(ModelLinear)) // cfg.Stage2
		w.U64(2)                 // n
		w.U8(uint8(s1))          // stage-1 model: kind, then parameters
		(&poly{keyScale: 1, c1: 1}).encode(w)
		w.U32(1) // one leaf: tagged model, margins, span
		w.U8(uint8(ModelLinear))
		(&poly{keyScale: 1, c1: 1}).encode(w)
		(&clamps{1, 1, 0, 1}).encode(w)
		idx, err := Decode(binio.NewReader(w.Buffered()))
		if idx != nil || !errors.Is(err, binio.ErrCorrupt) {
			t.Errorf("stage 1 %v: decoded to (%v, %v), want a corrupt-data error", s1, idx, err)
		}
	}
}
