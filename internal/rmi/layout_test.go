package rmi

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/dataset"
)

// refLeaf is the leaf the folded layouts replaced, kept as the
// reference they are held to: a tagged model evaluated in two steps
// (model.predict, which normalises the key and clamps t to [0, 1], then
// a float clamp to the trained span and a rounding). Its slope is the
// float32 one a folded leaf stores, and its margins are rounded up
// through the same 16-bit code, once all are collected.
type refLeaf struct {
	m            model
	errLo, errHi int
	loPos, hiPos int32
}

func (lf *refLeaf) clampPredict(fkey float64) int {
	p := lf.m.predict(fkey)
	if p <= float64(lf.loPos) {
		return int(lf.loPos)
	}
	if p >= float64(lf.hiPos) {
		return int(lf.hiPos)
	}
	return int(math.Round(p))
}

// refFinish trains reference leaves over a routing exactly as finish
// trains folded ones, and returns them with the reference's log2 error.
func refFinish(r *routed, fkeys []float64, stage2 ModelKind) ([]refLeaf, float64) {
	n, B := r.top.n, r.top.cfg.Branch
	leaves := make([]refLeaf, B)
	nextStart := n
	for li := B - 1; li >= 0; li-- {
		lf := &leaves[li]
		first, last := r.first[li], r.last[li]
		if first < 0 {
			p := min(nextStart, n-1)
			lf.m = fitModel(ModelLinearSpline, nil, float64(p))
			lf.loPos, lf.hiPos = int32(p), int32(p)
			lf.errLo, lf.errHi = 1, 1
			continue
		}
		lf.m = fitModel(stage2, fkeys[first:last+1], float64(first))
		if stage2 != ModelCubic && lf.m.keyScale != 0 {
			lf.m.c1 = float64(float32(lf.m.c1*lf.m.keyScale)) / lf.m.keyScale
		}
		lf.loPos, lf.hiPos = int32(first), int32(last)
		lf.errLo, lf.errHi = 1, 1
		nextStart = first
	}
	for i := range fkeys {
		lf := &leaves[r.assign[i]]
		d := lf.clampPredict(fkeys[i]) - i
		lf.errLo, lf.errHi = max(lf.errLo, d+1), max(lf.errHi, -d+1)
	}
	total, count := 0.0, 0.0
	for i := range leaves {
		lf := &leaves[i]
		lf.errLo, lf.errHi = core.ToMargin(lf.errLo).Value(), core.ToMargin(lf.errHi).Value()
		occ := float64(lf.hiPos-lf.loPos) + 1
		total += occ * math.Log2(float64(lf.errLo+lf.errHi+1)+1)
		count += occ
	}
	return leaves, total / count
}

// checkAgainstReference holds one built index to the reference leaves
// over the same routing: per-leaf margins and the log2 error equal,
// every probe's position within one of the reference's (the fold
// re-associates the arithmetic, so a prediction on a rounding tie may
// land on the other side), and Explain's bound equal to Lookup's.
func checkAgainstReference(t *testing.T, keys []core.Key, cfg Config, probes []core.Key) {
	t.Helper()
	fkeys := floatKeys(keys)
	r := trainStage1(fkeys, cfg.Stage1, cfg.Branch)
	idx := r.finish(fkeys, cfg.Stage2)
	ref, refLog2 := refFinish(r, fkeys, cfg.Stage2)

	if idx.NumLeaves() != len(ref) {
		t.Fatalf("%v: %d leaves, reference %d", cfg, idx.NumLeaves(), len(ref))
	}
	for li := range ref {
		if c := idx.clampsOf(li); c.errLo.Value() != ref[li].errLo || c.errHi.Value() != ref[li].errHi {
			t.Fatalf("%v leaf %d: margins (%d,%d), reference (%d,%d)", cfg, li, c.errLo.Value(), c.errHi.Value(), ref[li].errLo, ref[li].errHi)
		}
	}
	if got := idx.AvgLog2Error(); got != refLog2 {
		t.Fatalf("%v: AvgLog2Error %v, reference %v", cfg, got, refLog2)
	}
	for _, x := range probes {
		li, pos, b := idx.Explain(x)
		if refPos := ref[li].clampPredict(float64(x)); pos < refPos-1 || pos > refPos+1 {
			t.Fatalf("%v key %d: position %d, reference %d", cfg, x, pos, refPos)
		}
		if b != idx.Lookup(x) {
			t.Fatalf("%v key %d: Explain %v, Lookup %v", cfg, x, b, idx.Lookup(x))
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
// benchmark's scale, on the configuration every store shard builds and
// on two with far smaller leaves.
func TestLeavesMatchReferenceAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("2M keys per dataset")
	}
	for _, name := range dataset.All() {
		keys := dataset.MustGenerate(name, 2_000_000, 1)
		for _, cfg := range []Config{
			{modelRadix, ModelLinear, 4096},
			{ModelLinear, ModelLinearSpline, 65536},
			{ModelCubic, ModelLinear, 1024},
		} {
			checkAgainstReference(t, keys, cfg, keys)
		}
	}
}

// TestLeafLayout pins what memory holds: a linear leaf is 24 bytes and a
// cubic leaf one 64-byte cache line, and SizeBytes charges every byte of
// them — a field added to a leaf fails here. A cubic array starts on a
// line, so no cubic leaf straddles one; a linear array starts on a line
// once it is a large (page-aligned) allocation, as every store shard's
// 4,096 leaves are, so two of every eight linear leaves straddle one.
func TestLeafLayout(t *testing.T) {
	if got := unsafe.Sizeof(leaf{}); got != leafBytes || leafBytes != 24 {
		t.Errorf("leaf is %d bytes, leafBytes %d, want 24", got, leafBytes)
	}
	if got := unsafe.Sizeof(cubicLeaf{}); got != cubicLeafBytes || cubicLeafBytes != 64 {
		t.Errorf("cubicLeaf is %d bytes, cubicLeafBytes %d, want 64", got, cubicLeafBytes)
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
		align := uintptr(64)
		if cfg.Stage2 == ModelCubic {
			base, stride = uintptr(unsafe.Pointer(&idx.cubics[0])), unsafe.Sizeof(cubicLeaf{})
		} else {
			base, stride = uintptr(unsafe.Pointer(&idx.leaves[0])), unsafe.Sizeof(leaf{})
			if idx.NumLeaves()*leafBytes < 32<<10 {
				align = 8
			}
		}
		if idx.leaves != nil && idx.cubics != nil {
			t.Errorf("%v: both layouts populated", cfg)
		}
		if base%align != 0 {
			t.Errorf("%v: leaf array at %#x, not aligned to %d bytes", cfg, base, align)
		}
		if int(stride) != idx.LeafBytes() {
			t.Errorf("%v: LeafBytes %d, stride %d", cfg, idx.LeafBytes(), stride)
		}
		if want := int(unsafe.Sizeof(model{})) + idx.NumLeaves()*int(stride); idx.SizeBytes() != want {
			t.Errorf("%v: SizeBytes %d, memory holds %d", cfg, idx.SizeBytes(), want)
		}
	}
}

// TestLookupDoesNotAllocate holds the cubic layout's lookups to zero
// allocations. The linear layout's are the work ledger's table.rmi rows
// (internal/ledger), whose RMI is the mid-ladder radix/linear one.
func TestLookupDoesNotAllocate(t *testing.T) {
	keys := dataset.MustGenerate(dataset.OSM, 20000, 1)
	idx, err := New(keys, Config{Stage1: modelRadix, Stage2: ModelCubic, Branch: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var sink core.Bound
	if a := testing.AllocsPerRun(100, func() { sink = idx.Lookup(keys[777]) }); a != 0 {
		t.Errorf("Lookup allocates %v times", a)
	}
	_ = sink
}
