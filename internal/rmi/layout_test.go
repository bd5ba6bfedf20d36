package rmi

import (
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/dataset"
)

// refLeaf is a leaf as its fit leaves it, kept as the reference the
// folded layouts are held to: a tagged model over the fraction,
// evaluated in two steps (the line through the fit's own origin, then
// a float clamp to the trained span and a rounding).
// Its line is the one a folded leaf stores, the float32 slope through
// the float32 fraction where the fit crosses the first position, kept
// in the fit's own origin; its margins are rounded up through the same
// code as its layout's, once all are collected.
type refLeaf struct {
	m            model
	errLo, errHi int
	loPos, hiPos int32
}

func (lf *refLeaf) clampPredict(f float64) int {
	p := lf.m.c0 + lf.m.c1*lf.m.keyScale*(f-lf.m.keyOff)
	if p <= float64(lf.loPos) {
		return int(lf.loPos)
	}
	if p >= float64(lf.hiPos) {
		return int(lf.hiPos)
	}
	return int(math.Round(p))
}

// refLeafOf is the leaf key x routes to, and refFraction what leaf li
// reads for it: stage 1's position scaled to B leaves, less li.
func refLeafOf(r *routed, x float64) int {
	return min(max(int(math.Floor(refScaled(r, x))), 0), r.top.cfg.Branch-1)
}

func refFraction(r *routed, li int, x float64) float64 { return refScaled(r, x) - float64(li) }

func refScaled(r *routed, x float64) float64 {
	return r.top.stage1.predict(x) * (float64(r.top.cfg.Branch) / float64(r.top.n))
}

// refFinish trains reference leaves over a routing exactly as finish
// trains folded ones, and returns them with the reference's log2 error.
// A leaf is fitted on the fractions of the keys in its span, and clamped
// to its first position and the next non-empty leaf's first − 1; an
// empty leaf predicts the next non-empty leaf's first position (n past
// the last one). A line whose float32 slope is zero predicts its first
// position: the folded leaf cannot hold a flat line elsewhere. A knot
// leaf fits nothing: it is the line from its first position to the next
// non-empty leaf's first over the fraction.
func refFinish(r *routed, fkeys []float64, stage2 ModelKind) ([]refLeaf, float64) {
	n, B := r.top.n, r.top.cfg.Branch
	leaves := make([]refLeaf, B)
	nextStart := n
	for li := B - 1; li >= 0; li-- {
		lf := &leaves[li]
		first, last := r.first[li], r.last[li]
		lf.errLo, lf.errHi = 1, 1
		if first < 0 {
			lf.m = model{kind: ModelLinearSpline, poly: poly{c0: float64(nextStart)}}
			lf.loPos, lf.hiPos = int32(nextStart), int32(nextStart)
			continue
		}
		fs := make([]float64, last-first+1)
		for i := range fs {
			fs[i] = refFraction(r, li, fkeys[first+i])
		}
		switch stage2 {
		case modelKnot:
			lf.m = model{kind: ModelLinearSpline, poly: poly{keyScale: 1, c0: float64(first), c1: float64(nextStart - first)}}
		default:
			lf.m = fitModel(stage2, fs, float64(first))
			m := &lf.m
			s := float64(float32(m.c1 * m.keyScale))
			cross := float32(m.keyOff - (m.c0-float64(first))/s)
			if s > 0 && !math.IsInf(float64(cross), 0) {
				m.c0, m.c1 = float64(first)+s*(m.keyOff-float64(cross)), s/m.keyScale
			} else {
				m.c0, m.c1 = float64(first), 0
			}
		}
		lf.loPos, lf.hiPos = int32(first), int32(nextStart-1)
		nextStart = first
	}
	for i := range fkeys {
		li := refLeafOf(r, fkeys[i])
		lf := &leaves[li]
		d := lf.clampPredict(refFraction(r, li, fkeys[i])) - i
		lf.errLo, lf.errHi = max(lf.errLo, d+1), max(lf.errHi, -d+1)
	}
	total, count := 0.0, 0.0
	for li := range leaves {
		lf := &leaves[li]
		if stage2 == modelKnot {
			lf.errLo, lf.errHi = core.ToMargin(lf.errLo).Value(), core.ToMargin(lf.errHi).Value()
		} else {
			lf.errLo, lf.errHi = toMargin16(lf.errLo).value(), toMargin16(lf.errHi).value()
		}
		occ := float64(r.last[li]-r.first[li]) + 1
		total += occ * math.Log2(float64(lf.errLo+lf.errHi+1)+1)
		count += occ
	}
	return leaves, total / count
}

// checkAgainstReference holds one built index to the reference leaves
// over the same routing: per-leaf margins and the log2 error equal,
// every probe's position within one of the reference's (the fold
// re-associates the arithmetic, so a prediction on a rounding tie may
// land on the other side), and Lookup's bound the one around that
// position.
func checkAgainstReference(t *testing.T, keys []core.Key, cfg Config, probes []core.Key) {
	t.Helper()
	fkeys := floatKeys(keys)
	r := trainStage1(slices.Clone(fkeys), cfg.Stage1, cfg.Branch)
	idx := r.finish(cfg.Stage2)[0]
	ref, refLog2 := refFinish(r, fkeys, cfg.Stage2)

	if idx.cfg.Branch != len(ref) {
		t.Fatalf("%v: %d leaves, reference %d", cfg, idx.cfg.Branch, len(ref))
	}
	for li := range ref {
		if _, errLo, errHi := idx.leafAt(li); errLo != ref[li].errLo || errHi != ref[li].errHi {
			t.Fatalf("%v leaf %d: margins (%d,%d), reference (%d,%d)", cfg, li, errLo, errHi, ref[li].errLo, ref[li].errHi)
		}
	}
	if got := idx.AvgLog2Error(); got != refLog2 {
		t.Fatalf("%v: AvgLog2Error %v, reference %v", cfg, got, refLog2)
	}
	for _, x := range probes {
		li, pos, errLo, errHi := idx.leafPos(idx.stage1.predict(float64(x)) * idx.scale)
		if refLeafOf(r, float64(x)) != li {
			t.Fatalf("%v key %d: leaf %d, reference %d", cfg, x, li, refLeafOf(r, float64(x)))
		}
		if refPos := ref[li].clampPredict(refFraction(r, li, float64(x))); pos < refPos-1 || pos > refPos+1 {
			t.Fatalf("%v key %d: position %d, reference %d", cfg, x, pos, refPos)
		}
		if b := core.BoundAround(pos, errLo, errHi, len(keys)); b != idx.Lookup(x) {
			t.Fatalf("%v key %d: bound around position %d is %v, Lookup %v", cfg, x, pos, b, idx.Lookup(x))
		}
	}
}

func TestLeavesMatchReference(t *testing.T) {
	for _, name := range dataset.All() {
		keys := dataset.MustGenerate(name, 5000, 1)
		probes := probesFor(keys)
		for _, cfg := range allConfigs() {
			checkAgainstReference(t, keys, cfg, probes)
		}
	}
}

// TestLeavesMatchReferenceAtScale repeats the reference check at the
// benchmark's scale, on the configuration every amzn store shard builds,
// its linear-leaf counterpart, and two with far smaller leaves.
func TestLeavesMatchReferenceAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("2M keys per dataset")
	}
	for _, name := range dataset.All() {
		keys := dataset.MustGenerate(name, 2_000_000, 1)
		for _, cfg := range []Config{
			{modelRadix, modelKnot, 4096},
			{modelRadix, ModelLinear, 4096},
			{ModelLinear, ModelLinearSpline, 65536},
			{ModelLinear, ModelLinear, 1024},
		} {
			checkAgainstReference(t, keys, cfg, keys)
		}
	}
}

// TestLeafLayout pins what memory holds: a linear leaf is 16 bytes, four
// to a cache line, and a knot leaf 6 with no padding, each array exactly B leaves, and SizeBytes charges every byte of them — a field added to
// a leaf fails here. A linear array starts on a line once it is a large
// (page-aligned) allocation, so no linear leaf straddles one.
func TestLeafLayout(t *testing.T) {
	if got := unsafe.Sizeof(leaf{}); got != leafBytes || leafBytes != 16 || 64%leafBytes != 0 {
		t.Errorf("leaf is %d bytes, leafBytes %d, want 16, four to a line", got, leafBytes)
	}
	if got, align := unsafe.Sizeof(knot{}), unsafe.Alignof(knot{}); got != knotBytes || knotBytes != 6 || align != 2 {
		t.Errorf("knot is %d bytes aligned to %d, knotBytes %d, want 6 aligned to 2", got, align, knotBytes)
	}
	if got := unsafe.Sizeof(model{}); got != modelSizeBytes {
		t.Errorf("model is %d bytes, modelSizeBytes %d", got, modelSizeBytes)
	}
	keys := dataset.MustGenerate(dataset.Amzn, 5000, 1)
	for _, cfg := range allConfigs() {
		idx, err := New(keys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var base, stride uintptr
		var count, layouts int
		align := uintptr(8)
		if idx.knots != nil {
			base, stride, count, align = uintptr(unsafe.Pointer(&idx.knots[0])), unsafe.Sizeof(knot{}), len(idx.knots), 2
			layouts++
		}
		if idx.leaves != nil {
			base, stride, count = uintptr(unsafe.Pointer(&idx.leaves[0])), unsafe.Sizeof(leaf{}), len(idx.leaves)
			if count*leafBytes >= 32<<10 {
				align = 64
			}
			layouts++
		}
		if layouts != 1 {
			t.Fatalf("%v: %d layouts populated", cfg, layouts)
		}
		if last, _, _ := idx.leafAt(count - 1); count != idx.cfg.Branch || last > int32(len(keys)) {
			t.Errorf("%v: %d leaves for B = %d, last lo %d", cfg, count, idx.cfg.Branch, last)
		}
		if base%align != 0 {
			t.Errorf("%v: leaf array at %#x, not aligned to %d bytes", cfg, base, align)
		}
		if int(stride) != idx.Arrays()[1].Elem {
			t.Errorf("%v: leaf array described at %d bytes a leaf, stride %d", cfg, idx.Arrays()[1].Elem, stride)
		}
		if want := int(unsafe.Sizeof(model{})) + count*int(stride); idx.SizeBytes() != want {
			t.Errorf("%v: SizeBytes %d, memory holds %d", cfg, idx.SizeBytes(), want)
		}
	}
}

// TestShardLeavesRetainTheirBytes: an amzn store shard's leaf array, 4,096
// knot leaves, takes exactly the 24,576 bytes it describes from the heap,
// and so does the linear layout's 65,536; a sentinel leaf after the last
// once made that 65,552 bytes, which Go's allocator rounds up to 73,728.
// Everything else New retains is the Index itself. The test's own heap
// moves by a few dozen bytes between readings, far under the 8 KiB a page
// of rounding would add.
func TestShardLeavesRetainTheirBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	keys := dataset.MustGenerate(dataset.Amzn, 250_000, 1)
	var ms runtime.MemStats
	heap := func() int {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int(ms.HeapAlloc)
	}
	for _, stage2 := range []ModelKind{modelKnot, ModelLinear} {
		before := heap()
		idx, err := New(keys, Config{modelRadix, stage2, 4096})
		if err != nil {
			t.Fatal(err)
		}
		retained := heap() - before - int(unsafe.Sizeof(*idx))
		if leaves := idx.Arrays()[1]; retained > leaves.Elem*leaves.Len+256 || retained < leaves.Elem*leaves.Len-256 {
			t.Errorf("%v: retains %d bytes beside the Index, its leaves are %v", idx.cfg, retained, leaves)
		}
		runtime.KeepAlive(idx)
	}
}

// TestLookupDoesNotAllocate holds the knot layout's lookups, under a
// linear stage 1, to zero allocations. The linear layout's are the work
// ledger's table.rmi rows (internal/ledger), whose RMI is the
// mid-ladder radix/linear one.
func TestLookupDoesNotAllocate(t *testing.T) {
	keys := dataset.MustGenerate(dataset.OSM, 20000, 1)
	idx, err := New(keys, Config{Stage1: ModelLinear, Stage2: modelKnot, Branch: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var sink core.Bound
	if a := testing.AllocsPerRun(100, func() { sink = idx.Lookup(keys[777]) }); a != 0 {
		t.Errorf("Lookup allocates %v times", a)
	}
	_ = sink
}

// TestLinearLeafMarginCode holds the linear leaf's 16-bit margin code
// to its contract over every v below 2¹⁶ and a seeded sample up to
// 2³¹−1: never narrower than v, exact below 2,048, at most v + v>>10,
// and code and value both grow with v, so the worst of the codes is the
// code of the worst.
func TestLinearLeafMarginCode(t *testing.T) {
	vs := []int{1<<31 - 1, 1<<31 - 2, 1 << 30, 1<<30 + 1}
	for v := range 1 << 16 {
		vs = append(vs, v)
	}
	rng := rand.New(rand.NewPCG(43, 0))
	for range 1 << 16 {
		vs = append(vs, rng.IntN(1<<31))
	}
	for _, v := range vs {
		m := toMargin16(v)
		got := m.value()
		if got < v || (v < 2048 && got != v) || got > v+v>>10 {
			t.Fatalf("margin %d codes as %#x, decoded %d", v, uint16(m), got)
		}
		if prev := toMargin16(v - 1); v > 0 && (prev > m || prev.value() > got) {
			t.Fatalf("margin %d codes as %#x (%d), %d as %#x (%d)", v, uint16(m), got, v-1, uint16(prev), prev.value())
		}
	}
	if m := toMargin16(-5); m != 0 || m.value() != 0 {
		t.Errorf("margin -5 codes as %#x, want 0", uint16(m))
	}
}
