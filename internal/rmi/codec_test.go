package rmi

import (
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
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

// TestCodecRoundTripAndFlips: every leaf layout decodes to the index that
// was encoded, field for field, and every single-byte corruption of the
// payload decodes to an error or to an index whose lookups stay inside
// the data — the invariants pos and split lean on are re-validated, not
// trusted.
func TestCodecRoundTripAndFlips(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Wiki, 3000, 1)
	extremes := []core.Key{0, 1, keys[0], keys[len(keys)/2], keys[len(keys)-1], 1 << 40, ^core.Key(0)}
	for _, cfg := range []Config{
		{modelRadix, ModelLinear, 64},
		{ModelLinear, ModelLinearSpline, 64},
		{modelRadix, modelKnot, 64},
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
// cannot tell from a survivable one, on the linear and the knot layout:
// each must be an error, or leave bytes over, which the index frame
// refuses as trailing garbage.
func TestDecodeRejectsBrokenInvariants(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 3000, 1)
	n := uint32(len(keys))
	// Offsets into the payload: kinds, n, log2 error, the stage-1 model,
	// the leaf count, then leaf 0, leaf 1, ..., leaf 7: a linear leaf its
	// fraction origin, slope, lo and two 2-byte margins, a knot leaf two
	// 1-byte margins and lo, as a little-endian int32 in either layout.
	const (
		avgLog2 = 2 + 8
		c2      = avgLog2 + 8 + 1 + 4*8
		leaf0   = avgLog2 + 8 + (1 + 6*8) + 4
		slope   = leaf0 + 4
	)
	for _, stage2 := range []ModelKind{ModelLinear, modelKnot} {
		idx, err := New(keys, Config{modelRadix, stage2, 8})
		if err != nil {
			t.Fatal(err)
		}
		data := encoded(t, idx)
		stride, errs, lo, code := leafArray(stage2, 0).Elem, leaf0, leaf0+2, 1
		if stage2 != modelKnot {
			errs, lo, code = leaf0+12, leaf0+8, 2
		}
		last := lo + 7*stride
		ones := func(b []byte) { copy(b, []byte{0xff, 0xff}[:code]) }
		cases := map[string]func(b []byte){
			"negative log2 error":                  func(b []byte) { b[avgLog2+7] |= 0x80 },
			"leaf 0 lo above 0":                    func(b []byte) { b[lo] = 1 },
			"negative lo":                          func(b []byte) { b[lo+3] = 0x80 },
			"lo falling":                           func(b []byte) { copy(b[lo+2*stride:], []byte{0, 0, 0, 0}) },
			"last lo beyond the data":              func(b []byte) { binary.LittleEndian.PutUint32(b[last:], n+1) },
			"low margin far above n":               func(b []byte) { ones(b[errs:]) },
			"high margin far above n":              func(b []byte) { ones(b[errs+code:]) },
			"one leaf more than the payload holds": func(b []byte) { b[leaf0-4]++ },
			"one leaf fewer":                       func(b []byte) { b[leaf0-4]-- },
			"cubic stage 2":                        func(b []byte) { b[1] = byte(modelCubic) },
			"nonzero c2":                           func(b []byte) { b[c2+7] = 0x3f },
			"nonzero c3":                           func(b []byte) { b[c2+15] = 0x3f },
			"unknown stage-1 kind":                 func(b []byte) { b[0] = byte(modelKnot) },
			"unknown stage-1 fit":                  func(b []byte) { b[avgLog2+8] = byte(modelKnot) },
		}
		if stage2 == modelKnot {
			cases["linear stage 2 on the knot layout"] = func(b []byte) { b[1] = byte(ModelLinear) }
		} else {
			for name, corrupt := range map[string]func(b []byte){
				"knot stage 2 on the linear layout": func(b []byte) { b[1] = byte(modelKnot) },
				"negative slope":                    func(b []byte) { b[slope+3] |= 0x80 },
				"NaN slope":                         func(b []byte) { b[slope+2], b[slope+3] = 0xc0, 0x7f },
				"infinite slope":                    func(b []byte) { copy(b[slope:], []byte{0, 0, 0x80, 0x7f}) },
				"infinite fraction origin":          func(b []byte) { copy(b[leaf0:], []byte{0, 0, 0x80, 0xff}) },
				"NaN fraction origin":               func(b []byte) { copy(b[leaf0:], []byte{0, 0, 0xc0, 0x7f}) },
			} {
				cases[name] = corrupt
			}
		}
		for name, corrupt := range cases {
			mut := append([]byte(nil), data...)
			corrupt(mut)
			r := binio.NewReader(mut)
			if got, err := Decode(r); (err == nil || got != nil) && (err != nil || r.Remaining() == 0) {
				t.Errorf("%v %s: decoded to (%v, %v) with %d bytes over, want an error", stage2, name, got != nil, err, r.Remaining())
			}
		}
		if lo1 := binary.LittleEndian.Uint32(data[lo+stride:]); lo1 < 2 {
			t.Errorf("%v: leaf 1's lo is %d: the lo cases above need it above 1", stage2, lo1)
		}
		if len(data) != leaf0+8*stride {
			t.Errorf("%v: payload of %d bytes, want %d: eight leaf records and nothing after", stage2, len(data), leaf0+8*stride)
		}
	}
}

// TestDecodeNamesRetiredCubic: a payload whose stage 1 is the retired
// cubic kind, in the configuration, in the fitted model or in both, with
// the nonzero c2 and c3 a cubic fit had, decodes to an error that names
// the kind. internal/persist's FuzzDecode/retired-RMI-cubic seed is such
// a payload as the last build to fit cubics wrote it.
func TestDecodeNamesRetiredCubic(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 400, 99)
	idx, err := New(keys, Config{modelRadix, ModelLinear, 8})
	if err != nil {
		t.Fatal(err)
	}
	const fit = 2 + 8 + 8 // the stage-1 model's kind byte
	for _, at := range [][]int{{0}, {fit}, {0, fit}} {
		data := encoded(t, idx)
		for _, i := range at {
			data[i] = byte(modelCubic)
		}
		data[fit+1+4*8+7], data[fit+1+5*8+7] = 0xc0, 0x40 // c2 < 0 < c3
		got, err := Decode(binio.NewReader(data))
		if got != nil || !errors.Is(err, binio.ErrCorrupt) || !strings.Contains(err.Error(), "cubic") {
			t.Errorf("cubic kind at bytes %v: decoded to (%v, %v), want a corrupt-data error naming the cubic kind", at, got, err)
		}
	}
}

// TestDecodeRejectsTaggedLeafPayload: a payload in the layout that
// preceded the folded leaf (stage-1 kind first, a tagged seven-word
// model per leaf) puts its bytes on the wrong fields of today's, and
// the structural checks refuse it as corrupt; it is never read as the
// current layout.
func TestDecodeRejectsTaggedLeafPayload(t *testing.T) {
	model := func(w *binio.Writer) { // keyOff, keyScale, c0..c3
		for _, v := range []float64{0, 1, 0, 1, 0, 0} {
			w.F64(v)
		}
	}
	for s1 := ModelLinear; s1 <= modelRadix; s1++ {
		w := binio.NewWriter(nil)
		w.U8(uint8(s1))          // cfg.Stage1
		w.U8(uint8(ModelLinear)) // cfg.Stage2
		w.U64(2)                 // n
		w.U8(uint8(s1))          // stage-1 model: kind, then parameters
		model(w)
		w.U32(1) // one leaf: tagged model, margins, span
		w.U8(uint8(ModelLinear))
		model(w)
		w.U32(1)       // lo
		w.U32(1)       // hi
		w.U32(1 << 16) // margins
		idx, err := Decode(binio.NewReader(w.Buffered()))
		if idx != nil || !errors.Is(err, binio.ErrCorrupt) {
			t.Errorf("stage 1 %v: decoded to (%v, %v), want a corrupt-data error", s1, idx, err)
		}
	}
}
