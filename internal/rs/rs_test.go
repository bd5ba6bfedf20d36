package rs

import (
	"runtime"
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
	if len(idx.keys) > 3 {
		t.Errorf("linear data needed %d spline points", len(idx.keys))
	}
}

func TestRSSplineErrSizeTradeoff(t *testing.T) {
	keys := dataset.MustGenerate(dataset.OSM, 50000, 1)
	tight, _ := New(keys, Config{SplineErr: 2, RadixBits: 8})
	loose, _ := New(keys, Config{SplineErr: 256, RadixBits: 8})
	if len(tight.keys) <= len(loose.keys) {
		t.Errorf("tighter error should need more points: %d vs %d", len(tight.keys), len(loose.keys))
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

// TestRSConfigClamps: out-of-range knobs are clamped, and radix bits
// past the key span are never allocated — 1,000 wiki keys span 19 bits,
// so the 28 bits asked for would be a 512 MB table of empty buckets.
func TestRSConfigClamps(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Wiki, 1000, 1)
	idx, err := New(keys, Config{SplineErr: 0, RadixBits: 0})
	if err != nil {
		t.Fatal(err)
	}
	indextest.CheckValidity(t, idx, keys, indextest.ProbesFor(keys))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	idx2, err := New(keys, Config{SplineErr: 1, RadixBits: 99})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if idx2.cfg.RadixBits > 28 {
		t.Error("radix bits not clamped")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8<<20 {
		t.Errorf("New allocated %d bytes for %d keys", alloc, len(keys))
	}
	indextest.CheckValidity(t, idx2, keys, indextest.ProbesFor(keys))
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
