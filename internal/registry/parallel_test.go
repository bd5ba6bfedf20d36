package registry

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/binio"
	"repro/internal/core"
	"repro/internal/dataset"
)

// builtIndex is what a build is compared on: its encoding, its size,
// its log2 error as bits, and a fingerprint of its bound on every key
// (every lookupStride-th) and on the keys one below and one above each.
type builtIndex struct {
	enc    []byte
	size   int
	log2   uint64
	bounds uint64
}

func buildFor(t *testing.T, family string, nb NamedBuilder, keys []core.Key) builtIndex {
	t.Helper()
	idx, err := nb.Builder.Build(keys)
	if err != nil {
		t.Fatalf("%s %s: %v", family, nb.Label, err)
	}
	w := binio.NewWriter(nil)
	if err := idx.(interface{ Encode(*binio.Writer) error }).Encode(w); err != nil {
		t.Fatalf("%s %s: encode: %v", family, nb.Label, err)
	}
	b := builtIndex{enc: bytes.Clone(w.Buffered()), size: idx.SizeBytes(), bounds: 14695981039346656037}
	b.log2 = math.Float64bits(idx.(interface{ AvgLog2Error() float64 }).AvgLog2Error())
	for i := 0; i < len(keys); i += lookupStride {
		for _, x := range []core.Key{keys[i] - 1, keys[i], keys[i] + 1} {
			bd := idx.Lookup(x)
			b.bounds = (b.bounds ^ uint64(bd.Lo)) * 1099511628211
			b.bounds = (b.bounds ^ uint64(bd.Hi)) * 1099511628211
		}
	}
	return b
}

// TestBuildsSameUnderGOMAXPROCS is the chunked build passes' law: the
// CPU count decides how the per-key passes of a build are cut and run,
// never what they build. The RMI, PGM and RS ladders' two ends and
// middle over every dataset at 300k keys — six ranges of the passes —
// are built under GOMAXPROCS 1, 2, 3 and 8 and must encode to the same
// bytes, report the same size and log2 error to the bit, and bound every
// key and its neighbours alike.
func TestBuildsSameUnderGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, ds := range dataset.All() {
		keys := dataset.MustGenerate(ds, 300_000, 1)
		for _, family := range []string{"RMI", "PGM", "RS"} {
			rungs := ladder(family, keys)
			for _, at := range []int{0, len(rungs) / 2, len(rungs) - 1} {
				runtime.GOMAXPROCS(1)
				nb := rungs[at].resolve()
				want := buildFor(t, family, nb, keys)
				for _, procs := range []int{2, 3, 8} {
					runtime.GOMAXPROCS(procs)
					got := buildFor(t, family, nb, keys)
					what := fmt.Sprintf("%s %s on %s at GOMAXPROCS=%d", family, nb.Label, ds, procs)
					switch {
					case !bytes.Equal(got.enc, want.enc):
						t.Errorf("%s: encodes differently from GOMAXPROCS=1", what)
					case got.size != want.size:
						t.Errorf("%s: SizeBytes %d, at GOMAXPROCS=1 %d", what, got.size, want.size)
					case got.log2 != want.log2:
						t.Errorf("%s: AvgLog2Error %v, at GOMAXPROCS=1 %v", what, math.Float64frombits(got.log2), math.Float64frombits(want.log2))
					case got.bounds != want.bounds:
						t.Errorf("%s: bounds differ from GOMAXPROCS=1", what)
					}
				}
			}
		}
	}
}
