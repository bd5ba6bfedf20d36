package rs

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/indextest"
)

func TestRSValidityAllDatasets(t *testing.T) {
	for _, name := range dataset.All() {
		keys := dataset.MustGenerate(name, 5000, 1)
		probes := indextest.ProbesFor(keys)
		for _, cfg := range []Config{
			{SplineErr: 1, RadixBits: 4},
			{SplineErr: 8, RadixBits: 10},
			{SplineErr: 32, RadixBits: 18},
			{SplineErr: 256, RadixBits: 2},
		} {
			idx, err := New(keys, cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", name, cfg, err)
			}
			indextest.CheckValidity(t, idx, keys, probes)
		}
	}
}

func TestRSSplineErrorGuarantee(t *testing.T) {
	// On unique-key data, the verified margins stay close to the
	// configured spline error.
	keys := dataset.MustGenerate(dataset.Amzn, 20000, 1)
	for _, eps := range []int{2, 16, 128} {
		idx, _ := New(keys, Config{SplineErr: eps, RadixBits: 12})
		if idx.errLo > eps+2 || idx.errHi > eps+2 {
			t.Errorf("eps=%d: margins (%d, %d) exceed eps+2", eps, idx.errLo, idx.errHi)
		}
	}
}

func TestRSLinearDataFewPoints(t *testing.T) {
	keys := make([]core.Key, 10000)
	for i := range keys {
		keys[i] = core.Key(7 * i)
	}
	idx, _ := New(keys, Config{SplineErr: 8, RadixBits: 8})
	if idx.NumPoints() > 3 {
		t.Errorf("linear data needed %d spline points", idx.NumPoints())
	}
}

func TestRSSplineErrSizeTradeoff(t *testing.T) {
	keys := dataset.MustGenerate(dataset.OSM, 50000, 1)
	tight, _ := New(keys, Config{SplineErr: 2, RadixBits: 8})
	loose, _ := New(keys, Config{SplineErr: 256, RadixBits: 8})
	if tight.NumPoints() <= loose.NumPoints() {
		t.Errorf("tighter error should need more points: %d vs %d", tight.NumPoints(), loose.NumPoints())
	}
}

func TestRSRadixBitsSize(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 10000, 1)
	small, _ := New(keys, Config{SplineErr: 32, RadixBits: 4})
	big, _ := New(keys, Config{SplineErr: 32, RadixBits: 16})
	if small.SizeBytes() >= big.SizeBytes() {
		t.Errorf("more radix bits should be larger: %d vs %d", small.SizeBytes(), big.SizeBytes())
	}
}

func TestRSFaceOutliersDegradeRadix(t *testing.T) {
	// With outliers at the top of the key space, most radix-table
	// buckets cover the dense bulk poorly; the spline search window
	// gets wide but validity must hold (checked) and the bulk prefix
	// becomes a single giant bucket (checked via table skew).
	keys := dataset.MustGenerate(dataset.Face, 20000, 1)
	idx, _ := New(keys, Config{SplineErr: 16, RadixBits: 12})
	indextest.CheckValidity(t, idx, keys, keys[:2000])
	// The bulk of keys (< 2^50) lives in bucket 0 of the prefix space
	// because outliers near 2^64 stretch the span.
	bulkPrefix := idx.prefix(keys[len(keys)/2])
	if bulkPrefix > 2 {
		t.Errorf("expected bulk to collapse into low buckets, got prefix %d", bulkPrefix)
	}
}

func TestRSEmpty(t *testing.T) {
	if _, err := New(nil, Config{SplineErr: 8, RadixBits: 8}); err == nil {
		t.Fatal("expected error")
	}
}

func TestRSSingleKey(t *testing.T) {
	keys := []core.Key{42}
	idx, err := New(keys, Config{SplineErr: 4, RadixBits: 6})
	if err != nil {
		t.Fatal(err)
	}
	indextest.CheckValidity(t, idx, keys, []core.Key{0, 41, 42, 43, ^core.Key(0)})
}

func TestRSDuplicates(t *testing.T) {
	keys := make([]core.Key, 0, 64)
	for i := 0; i < 40; i++ {
		keys = append(keys, 1000)
	}
	for i := 0; i < 24; i++ {
		keys = append(keys, core.Key(2000+i*3))
	}
	idx, err := New(keys, Config{SplineErr: 2, RadixBits: 6})
	if err != nil {
		t.Fatal(err)
	}
	indextest.CheckValidity(t, idx, keys, indextest.ProbesFor(keys))
}

func TestRSConfigClamps(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Wiki, 1000, 1)
	idx, err := New(keys, Config{SplineErr: 0, RadixBits: 0})
	if err != nil {
		t.Fatal(err)
	}
	indextest.CheckValidity(t, idx, keys, indextest.ProbesFor(keys))
	idx2, err := New(keys, Config{SplineErr: 1, RadixBits: 99})
	if err != nil {
		t.Fatal(err)
	}
	if idx2.cfg.RadixBits > 28 {
		t.Error("radix bits not clamped")
	}
}

func TestRSBuilderInterface(t *testing.T) {
	var b core.Builder = Builder{Config: Config{SplineErr: 16, RadixBits: 10}}
	if b.Name() != "RS" {
		t.Errorf("name %q", b.Name())
	}
	keys := dataset.MustGenerate(dataset.OSM, 3000, 1)
	idx := indextest.CheckBuilder(t, b, keys)
	if idx.Name() != "RS" || idx.SizeBytes() <= 0 {
		t.Error("bad metadata")
	}
}

func TestRSAvgLog2Error(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 5000, 1)
	idx, _ := New(keys, Config{SplineErr: 8, RadixBits: 8})
	if e := idx.AvgLog2Error(); e <= 0 || e > 20 {
		t.Errorf("log2 error out of range: %f", e)
	}
}

func TestRSConfigString(t *testing.T) {
	c := Config{SplineErr: 32, RadixBits: 18}
	if c.String() != "rs[eps=32,r=18]" {
		t.Errorf("got %q", c.String())
	}
}
