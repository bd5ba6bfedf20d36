package registry

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// allBuiltins is the family set the built-in catalog must provide.
var allBuiltins = []string{
	"RMI", "PGM", "RS", "RBS", "BTree", "IBTree", "ART", "FAST",
	"FST", "Wormhole", "BS", "RobinHash", "CuckooMap",
}

func TestBuiltinCatalogComplete(t *testing.T) {
	for _, f := range allBuiltins {
		if !Has(f) {
			t.Errorf("family %s not registered", f)
		}
	}
	fams := Families()
	if len(fams) < len(allBuiltins) {
		t.Fatalf("Families() lists %d, want >= %d", len(fams), len(allBuiltins))
	}
	for i := 1; i < len(fams); i++ {
		if fams[i] <= fams[i-1] {
			t.Fatalf("Families() not sorted: %v", fams)
		}
	}
	for _, set := range [][]string{ParetoFamilies, StringFamilies, Table2Families,
		Fig12Families, Fig16Families, ServeFamilies} {
		for _, f := range set {
			if !Has(f) {
				t.Errorf("figure family set references unregistered %s", f)
			}
		}
	}
}

func TestSweepsBuildAndValidate(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Wiki, 2000, 1)
	for _, f := range Families() {
		sweep := Sweep(f, keys)
		if len(sweep) == 0 {
			t.Errorf("%s: empty sweep", f)
			continue
		}
		// Build the mid variant and spot-check bound validity.
		nb, ok := Builder(f, keys)
		if !ok {
			t.Fatalf("%s: no canonical builder", f)
		}
		idx, err := nb.Builder.Build(keys)
		if err != nil {
			t.Fatalf("%s(%s): %v", f, nb.Label, err)
		}
		for _, x := range keys[:200] {
			if b := idx.Lookup(x); !core.ValidBound(keys, x, b) {
				t.Fatalf("%s: invalid bound %v for key %d", f, b, x)
			}
		}
	}
}

func TestSweepUnknownFamily(t *testing.T) {
	if Sweep("NoSuchFamily", nil) != nil {
		t.Error("unknown family returned a sweep")
	}
	if Has("NoSuchFamily") {
		t.Error("Has(unknown) = true")
	}
	if _, ok := Builder("NoSuchFamily", nil); ok {
		t.Error("Builder(unknown) ok")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register("RMI", func([]core.Key) []Rung { return nil })
}

func TestRegisterNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil Register did not panic")
		}
	}()
	Register("SomethingNew", nil)
}

func TestRebuildBuilder(t *testing.T) {
	keys := make([]core.Key, 2000)
	for i := range keys {
		keys[i] = core.Key(i)*7 + 3
	}
	// A family without a hook (trees bulk-load) reuses prev verbatim.
	prevNB, ok := Builder("BTree", keys)
	if !ok {
		t.Fatal("no BTree builder")
	}
	if got := RebuildBuilder("BTree", prevNB.Builder, keys); got != prevNB.Builder {
		t.Error("BTree rebuild did not reuse the previous builder")
	}
	// An unknown family (custom builder) also reuses prev.
	if got := RebuildBuilder("NoSuchFamily", prevNB.Builder, keys); got != prevNB.Builder {
		t.Error("unknown-family rebuild did not reuse the previous builder")
	}
	// Learned families re-tune: the hook must return a usable builder
	// of the same family.
	for _, fam := range []string{"RMI", "PGM", "RS"} {
		nb, ok := Builder(fam, keys)
		if !ok {
			t.Fatalf("no %s builder", fam)
		}
		b := RebuildBuilder(fam, nb.Builder, keys)
		if b == nil {
			t.Fatalf("%s rebuild returned nil", fam)
		}
		if b.Name() != nb.Builder.Name() {
			t.Errorf("%s rebuild switched family to %s", fam, b.Name())
		}
		if _, err := b.Build(keys); err != nil {
			t.Errorf("%s rebuilt builder failed: %v", fam, err)
		}
	}
}

func TestRegisterRebuildDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate RegisterRebuild did not panic")
		}
	}()
	RegisterRebuild("RMI", func(prev core.Builder, _ []core.Key) core.Builder { return prev })
}

func TestConfigIDs(t *testing.T) {
	cases := []struct{ family, label, id string }{
		{"PGM", "eps=64", "PGM/eps=64"},
		{"BTree", "stride=8", "BTree/stride=8"},
		{"RMI", "rmi[linear,cubic,B=512]", "RMI/rmi[linear,cubic,B=512]"},
		{"ART", "", "ART"},
		{"X", "a/b", "X/a/b"}, // labels may contain '/'
	}
	for _, c := range cases {
		if got := ID(c.family, c.label); got != c.id {
			t.Errorf("ID(%q,%q) = %q, want %q", c.family, c.label, got, c.id)
		}
		fam, label := ParseID(c.id)
		if fam != c.family || label != c.label {
			t.Errorf("ParseID(%q) = %q,%q, want %q,%q", c.id, fam, label, c.family, c.label)
		}
	}
}

// TestSweepEntryStableAcrossSweeps is the cross-process lookup
// contract: every entry of a deterministic sweep must be findable by
// its own label, and an unknown label or family must miss cleanly.
func TestSweepEntryStableAcrossSweeps(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 2000, 3)
	for _, fam := range []string{"BTree", "IBTree", "RBS", "PGM", "RS", "FST"} {
		for _, nb := range Sweep(fam, keys) {
			got, ok := SweepEntry(fam, nb.Label, keys)
			if !ok {
				t.Fatalf("%s: entry %q not found by label", fam, nb.Label)
			}
			if got.Builder != nb.Builder {
				t.Errorf("%s/%s: resolved different builder", fam, nb.Label)
			}
		}
	}
	if _, ok := SweepEntry("PGM", "eps=999999", keys); ok {
		t.Error("unknown label resolved")
	}
	if _, ok := SweepEntry("NoSuchFamily", "", keys); ok {
		t.Error("unknown family resolved")
	}
}

// TestBuilderIsMidSweep pins the lazy ladder to the eager one: the
// single rung Builder resolves is the sweep's middle entry — same
// label, same index size — for the serving families on every dataset,
// from a ladder of two rungs to the benchmark's 2M keys.
func TestBuilderIsMidSweep(t *testing.T) {
	sizes := []int{1_000, 250_000, 2_000_000}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, n := range sizes {
		for _, ds := range dataset.All() {
			keys := dataset.MustGenerate(ds, n, 1)
			for _, fam := range ServeFamilies {
				sweep := Sweep(fam, keys)
				want := sweep[len(sweep)/2]
				got, ok := Builder(fam, keys)
				if !ok || got.Label != want.Label {
					t.Fatalf("%s/%s n=%d: Builder = %q (ok=%v), mid-sweep = %q", fam, ds, n, got.Label, ok, want.Label)
				}
				gotIdx, err := got.Builder.Build(keys)
				if err != nil {
					t.Fatal(err)
				}
				wantIdx, err := want.Builder.Build(keys)
				if err != nil {
					t.Fatal(err)
				}
				if gotIdx.SizeBytes() != wantIdx.SizeBytes() {
					t.Errorf("%s/%s n=%d: Builder index %d B, mid-sweep %d B", fam, ds, n, gotIdx.SizeBytes(), wantIdx.SizeBytes())
				}
				for _, nb := range sweep {
					if e, ok := SweepEntry(fam, nb.Label, keys); !ok || e != nb {
						t.Errorf("%s/%s n=%d: SweepEntry(%q) = %v, %v", fam, ds, n, nb.Label, e, ok)
					}
				}
			}
		}
	}
}

// TestLadderResolvesOnlyWhatIsAsked registers a family whose rungs
// count their resolutions: Builder must resolve the middle rung alone,
// SweepEntry the named rung alone, Sweep each rung once.
func TestLadderResolvesOnlyWhatIsAsked(t *testing.T) {
	const rungs = 7
	var resolved [rungs]int
	Register("CountingLadder", func([]core.Key) []Rung {
		out := make([]Rung, rungs)
		for i := range out {
			knob := fmt.Sprintf("k=%d]", i)
			out[i] = Rung{Knob: knob, Resolve: func() NamedBuilder {
				resolved[i]++
				return NamedBuilder{Label: "tuned[" + knob}
			}}
		}
		return out
	})
	defer delete(families, "CountingLadder")
	check := func(what string, want [rungs]int) {
		t.Helper()
		if resolved != want {
			t.Errorf("%s resolved rungs %v, want %v", what, resolved, want)
		}
		resolved = [rungs]int{}
	}
	if nb, ok := Builder("CountingLadder", nil); !ok || nb.Label != "tuned[k=3]" {
		t.Errorf("Builder = %q, %v", nb.Label, ok)
	}
	check("Builder", [rungs]int{3: 1})
	if nb, ok := SweepEntry("CountingLadder", "tuned[k=5]", nil); !ok || nb.Label != "tuned[k=5]" {
		t.Errorf("SweepEntry = %q, %v", nb.Label, ok)
	}
	check("SweepEntry", [rungs]int{5: 1})
	if _, ok := SweepEntry("CountingLadder", "tuned[k=9]", nil); ok {
		t.Error("SweepEntry resolved a label no rung carries")
	}
	check("SweepEntry miss", [rungs]int{})
	if got := len(Sweep("CountingLadder", nil)); got != rungs {
		t.Errorf("Sweep returned %d entries", got)
	}
	check("Sweep", [rungs]int{1, 1, 1, 1, 1, 1, 1})
}

// TestCodecCatalog verifies every family the persistence subsystem
// promises (the ISSUE's minimum set) has a codec, and that codec
// lookups miss cleanly for families without one.
func TestCodecCatalog(t *testing.T) {
	for _, fam := range []string{"RMI", "PGM", "RS", "RBS", "BTree", "IBTree"} {
		if _, ok := CodecFor(fam); !ok {
			t.Errorf("family %s has no codec", fam)
		}
	}
	if _, ok := CodecFor("ART"); ok {
		t.Error("ART unexpectedly has a codec")
	}
	fams := CodecFamilies()
	for i := 1; i < len(fams); i++ {
		if fams[i] <= fams[i-1] {
			t.Errorf("CodecFamilies not sorted: %v", fams)
		}
	}
}
