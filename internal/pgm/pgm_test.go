package pgm

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/dataset"
)

func checkValidity(t *testing.T, idx core.Index, keys []core.Key, probes []core.Key) {
	t.Helper()
	for _, x := range probes {
		b := idx.Lookup(x)
		if !core.ValidBound(keys, x, b) {
			t.Fatalf("%s: invalid bound %v for key %d (lb=%d)", idx.Name(), b, x, core.LowerBound(keys, x))
		}
	}
}

func probesFor(keys []core.Key) []core.Key {
	probes := make([]core.Key, 0, 3*len(keys)+4)
	for _, k := range keys {
		probes = append(probes, k, k+1)
		if k > 0 {
			probes = append(probes, k-1)
		}
	}
	probes = append(probes, 0, 1, ^core.Key(0), ^core.Key(0)-1)
	return probes
}

func TestPGMValidityAllDatasets(t *testing.T) {
	for _, name := range dataset.All() {
		keys := dataset.MustGenerate(name, 5000, 1)
		probes := probesFor(keys)
		for _, eps := range []int{1, 4, 16, 64, 256} {
			idx, err := New(keys, eps)
			if err != nil {
				t.Fatalf("%s eps=%d: %v", name, eps, err)
			}
			checkValidity(t, idx, keys, probes)
		}
	}
}

func TestPGMBoundWidth(t *testing.T) {
	// On unique-key datasets bounds stay within 2*(eps+2)+1: the eps
	// corridor plus the absent-key/rounding margins.
	keys := dataset.MustGenerate(dataset.OSM, 10000, 1)
	for _, eps := range []int{2, 32} {
		idx, _ := New(keys, eps)
		maxW := 2*(eps+2) + 1
		for _, k := range keys {
			if w := idx.Lookup(k).Width(); w > maxW {
				t.Fatalf("eps=%d: bound width %d > %d", eps, w, maxW)
			}
		}
	}
}

func TestPGMEmpty(t *testing.T) {
	if _, err := New(nil, 8); err == nil {
		t.Fatal("expected error on empty keys")
	}
}

func TestPGMSingleKey(t *testing.T) {
	keys := []core.Key{42}
	idx, err := New(keys, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkValidity(t, idx, keys, []core.Key{0, 41, 42, 43, ^core.Key(0)})
	if len(idx.levels) != 1 || idx.NumSegments() != 1 {
		t.Errorf("single key: levels=%d segments=%d", len(idx.levels), idx.NumSegments())
	}
}

func TestPGMDuplicates(t *testing.T) {
	keys := make([]core.Key, 0, 60)
	for i := 0; i < 20; i++ {
		keys = append(keys, 100, 100, 100)
	}
	for i := range keys {
		if i >= 30 {
			keys[i] = core.Key(200 + i)
		}
	}
	// re-sort after the edit
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			t.Fatal("test bug: keys not sorted")
		}
	}
	idx, err := New(keys, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkValidity(t, idx, keys, probesFor(keys))
}

func TestPGMLinearDataOneSegment(t *testing.T) {
	// Perfectly linear data must collapse to a single segment per level.
	keys := make([]core.Key, 10000)
	for i := range keys {
		keys[i] = core.Key(10 * i)
	}
	idx, _ := New(keys, 4)
	if idx.NumSegments() != 1 {
		t.Errorf("linear data produced %d segments, want 1", idx.NumSegments())
	}
	if len(idx.levels) != 1 {
		t.Errorf("linear data produced %d levels, want 1", len(idx.levels))
	}
}

func TestPGMEpsSizeTradeoff(t *testing.T) {
	// Smaller epsilon must produce more segments (larger index).
	keys := dataset.MustGenerate(dataset.OSM, 50000, 1)
	small, _ := New(keys, 256)
	large, _ := New(keys, 4)
	if large.SizeBytes() <= small.SizeBytes() {
		t.Errorf("eps=4 size %d should exceed eps=256 size %d", large.SizeBytes(), small.SizeBytes())
	}
}

func TestPGMMoreSegmentsOnOSM(t *testing.T) {
	// The paper: osm needs far more capacity at equal error than amzn.
	n := 50000
	amzn := dataset.MustGenerate(dataset.Amzn, n, 1)
	osm := dataset.MustGenerate(dataset.OSM, n, 1)
	ia, _ := New(amzn, 16)
	io, _ := New(osm, 16)
	if io.NumSegments() <= ia.NumSegments() {
		t.Errorf("osm segments (%d) should exceed amzn (%d)", io.NumSegments(), ia.NumSegments())
	}
}

func TestPGMEpsClamp(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Wiki, 1000, 1)
	idx, err := New(keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if idx.eps != 1 {
		t.Errorf("eps=0 should clamp to 1, got %d", idx.eps)
	}
	checkValidity(t, idx, keys, probesFor(keys))
}

func TestPGMBuilderInterface(t *testing.T) {
	var b core.Builder = Builder{Eps: 16}
	if b.Name() != "PGM" {
		t.Errorf("name = %q", b.Name())
	}
	keys := dataset.MustGenerate(dataset.Face, 3000, 1)
	idx, err := b.Build(keys)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Name() != "PGM" || idx.SizeBytes() <= 0 {
		t.Error("index metadata wrong")
	}
	checkValidity(t, idx, keys, probesFor(keys))
}

func TestPGMLevelsShrink(t *testing.T) {
	keys := dataset.MustGenerate(dataset.OSM, 100000, 1)
	idx, _ := New(keys, 8)
	if len(idx.levels) < 2 {
		t.Skipf("osm at this size built only %d levels", len(idx.levels))
	}
	// Each level must be strictly smaller than the one below.
	for li := 1; li < len(idx.levels); li++ {
		if len(idx.levels[li].keys) >= len(idx.levels[li-1].keys) {
			t.Errorf("level %d (%d segs) not smaller than level %d (%d)",
				li, len(idx.levels[li].keys), li-1, len(idx.levels[li-1].keys))
		}
	}
}

func TestPGMAvgLog2Error(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 1000, 1)
	idx, _ := New(keys, 7)
	// Bound widths are between 3 (margins floor) and 2*(eps+2)+1, so
	// the mean log2 width must fall in [log2(4), log2(2*9+1+1)].
	got := idx.AvgLog2Error()
	if got < 1 || got > math.Log2(float64(2*(7+2)+2)) {
		t.Errorf("AvgLog2Error = %f out of range", got)
	}
}

// TestFitSegmentsErrorGuarantee holds the corridor filter under the
// float32 slopes it stores: at every level and every rung of the PGM
// ladder, every point — a distinct data key at its lower-bound rank, or
// a segment key of the level below at its position — is predicted by
// its own segment within eps+1, the slack the descent's windows allow.
func TestFitSegmentsErrorGuarantee(t *testing.T) {
	for _, name := range dataset.All() {
		keys := dataset.MustGenerate(name, 20000, 2)
		for _, eps := range []int{4096, 1024, 512, 256, 128, 64, 32, 16, 8, 4, 1} {
			idx, err := New(keys, eps)
			if err != nil {
				t.Fatal(err)
			}
			points := keys
			for li, l := range idx.levels {
				si, rank := 0, 0
				for i, k := range points {
					if i > 0 && k == points[i-1] {
						continue // a duplicate is constrained by its first occurrence
					}
					rank = i
					for si+1 < len(l.keys) && l.keys[si+1] <= k {
						si++
					}
					pred := l.predict(si, l.end(si, len(points)), k)
					if d := pred - rank; d > eps+1 || d < -eps-1 {
						t.Fatalf("%s eps=%d level %d: point %d predicted %d (err %d)", name, eps, li, rank, pred, d)
					}
				}
				points = l.keys
			}
		}
	}
}

func TestPGMString(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 1000, 1)
	idx, _ := New(keys, 8)
	if idx.String() == "" {
		t.Error("empty String()")
	}
}

// TestSegmentLayout pins what memory holds: SizeBytes charges every
// level's three arrays and the margin array at the bytes their elements
// really take, 16 per segment and 2 per data segment's margin codes, so
// a field added to a level fails here.
func TestSegmentLayout(t *testing.T) {
	var l level
	var m core.Margin
	arrays := int(unsafe.Sizeof(l.keys[0]) + unsafe.Sizeof(l.slopes[0]) + unsafe.Sizeof(l.pos[0]))
	if segmentBytes != arrays || segmentBytes+2*int(unsafe.Sizeof(m)) != 18 {
		t.Errorf("segmentBytes %d: arrays hold %d, margin codes 2x%d, want 18 together", segmentBytes, arrays, unsafe.Sizeof(m))
	}
	keys := dataset.MustGenerate(dataset.OSM, 100000, 1)
	idx, err := New(keys, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, l := range idx.levels {
		want += len(l.keys)*int(unsafe.Sizeof(l.keys[0])) + len(l.slopes)*int(unsafe.Sizeof(l.slopes[0])) + len(l.pos)*int(unsafe.Sizeof(l.pos[0]))
	}
	if got := unsafe.Sizeof(level{}); got != 3*unsafe.Sizeof([]byte(nil)) {
		t.Errorf("level is %d bytes: a field beyond its three arrays", got)
	}
	want += len(idx.margins) * int(unsafe.Sizeof(idx.margins[0]))
	if got := idx.SizeBytes(); got != want {
		t.Errorf("SizeBytes %d, arrays hold %d", got, want)
	}
}
