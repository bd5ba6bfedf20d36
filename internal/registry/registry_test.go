package registry

import (
	"fmt"
	"slices"
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
		Fig12Families, Fig16Families, WriteFamilies} {
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
			t.Error("duplicate register did not panic")
		}
	}()
	register("RMI", func([]core.Key) []rung { return nil })
}

func TestRegisterNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil register did not panic")
		}
	}()
	register("SomethingNew", nil)
}

// TestRebuild pins the one rule that picks a serving shard's base
// builder from a codec tag and a key set.
func TestRebuild(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 2000, 3)
	for _, fam := range Families() {
		if fam == "BS" {
			continue // one unlabelled rung: its bare tag is its ID, below
		}
		mid, _ := Builder(fam, keys)
		// A bare family tag is "no rung yet": the mid-ladder rung, under
		// its labelled ID.
		nb, id, ok := Rebuild(fam, keys)
		if !ok || nb.Label != mid.Label || id != ID(fam, mid.Label) || id == fam {
			t.Errorf("Rebuild(%q) = %q, %q, %v; want the mid rung %q", fam, nb.Label, id, ok, mid.Label)
		}
		// The returned ID is a fixed point: rebuilding from it over the
		// same keys re-finds the same entry.
		nb2, id2, ok := Rebuild(id, keys)
		if !ok || id2 != id || nb2.Label != nb.Label {
			t.Errorf("Rebuild(%q) = %q, %q, %v; want a fixed point", id, nb2.Label, id2, ok)
		}
	}
	if _, id, ok := Rebuild("BS", keys); !ok || id != "BS" {
		t.Errorf("Rebuild(BS) = %q, %v", id, ok)
	}
	// A tree keeps the rung its tag names (the cheap bulk-load path)...
	want, _ := SweepEntry("BTree", "stride=4", keys)
	if nb, id, ok := Rebuild("BTree/stride=4", keys); !ok || id != "BTree/stride=4" || nb != want {
		t.Errorf("Rebuild(BTree/stride=4) = %v, %q, %v", nb, id, ok)
	}
	// ...and falls back to mid-ladder when its ladder has no such rung.
	if _, id, ok := Rebuild("BTree/stride=3", keys); !ok || id != "BTree/stride=16" {
		t.Errorf("Rebuild(BTree/stride=3) = %q, %v; want the mid rung", id, ok)
	}
	// A learned family re-tunes to the mid rung whatever rung it had, and
	// the builder it returns builds.
	for _, tag := range []string{"PGM/eps=4096", "RS/eps=4,r=22", "RMI/rmi[linear,linear,B=2]"} {
		fam, _ := ParseID(tag)
		mid, _ := Builder(fam, keys)
		nb, id, ok := Rebuild(tag, keys)
		if !ok || id != ID(fam, mid.Label) || nb.Builder.Name() != fam {
			t.Errorf("Rebuild(%q) = %q, %v; want %q", tag, id, ok, ID(fam, mid.Label))
		}
		if _, err := nb.Builder.Build(keys); err != nil {
			t.Errorf("Rebuild(%q): builder failed: %v", tag, err)
		}
	}
	if _, _, ok := Rebuild("NoSuchFamily/x=1", keys); ok {
		t.Error("unknown family rebuilt")
	}
}

// TestTier pins the tier policy: binary search for every small run and
// for every run of a family that is not learned, one coarse PGM for the
// large runs of the learned families.
func TestTier(t *testing.T) {
	small, large := make([]core.Key, tierLearnedMin-1), make([]core.Key, tierLearnedMin)
	for _, c := range []struct {
		family string
		keys   []core.Key
		id     string
	}{
		{"RMI", small, "BS"}, {"RMI", large, "PGM/eps=256"}, {"PGM", large, "PGM/eps=256"},
		{"RS", large, "PGM/eps=256"}, {"BTree", large, "BS"}, {"CustomFamily", large, "BS"},
	} {
		nb, id := Tier(c.family, c.keys)
		fam, label := ParseID(c.id)
		if id != c.id || nb.Label != label || nb.Builder.Name() != fam {
			t.Errorf("Tier(%s, %d keys) = %s(%q), %q; want %q", c.family, len(c.keys), nb.Builder.Name(), nb.Label, id, c.id)
		}
	}
}

// TestBuildWork: a base build's price per key orders the families as
// their measured build times do (250k amzn keys: BTree 1.0 < PGM 14.6 ≈
// RS 19.7 < RMI 41.4 ns/key), RMI's falls with n as its tuning sample
// caps (154 ns/key at 2k keys), and a tier run's price follows Tier:
// binary search fits nothing, a coarse PGM one pass.
func TestBuildWork(t *testing.T) {
	const n = 250_000
	perKey := func(family string, n int, base bool) float64 {
		return float64(BuildWork(family, n, base)) / float64(n)
	}
	bt, pgm, rs, rmi := perKey("BTree", n, true), perKey("PGM", n, true), perKey("RS", n, true), perKey("RMI", n, true)
	if !(bt < pgm && pgm == rs && rs < rmi) {
		t.Errorf("base price per key BTree %v, PGM %v, RS %v, RMI %v: want BTree < PGM = RS < RMI", bt, pgm, rs, rmi)
	}
	if small := perKey("RMI", 2000, true); small <= rmi {
		t.Errorf("RMI base price per key %v at 2k keys, %v at 250k: want it higher at 2k", small, rmi)
	}
	for _, c := range []struct {
		family string
		n      int
		want   int64
	}{
		{"RMI", tierLearnedMin - 1, tierLearnedMin - 1}, {"RMI", tierLearnedMin, 2 * tierLearnedMin},
		{"BTree", tierLearnedMin, tierLearnedMin}, {"CustomFamily", tierLearnedMin, tierLearnedMin},
	} {
		if got := BuildWork(c.family, c.n, false); got != c.want {
			t.Errorf("BuildWork(%s, %d, tier) = %d, want %d", c.family, c.n, got, c.want)
		}
	}
}

func TestConfigIDs(t *testing.T) {
	cases := []struct{ family, label, id string }{
		{"PGM", "eps=64", "PGM/eps=64"},
		{"BTree", "stride=8", "BTree/stride=8"},
		{"RMI", "rmi[radix,linear,B=512]", "RMI/rmi[radix,linear,B=512]"},
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
			for _, fam := range WriteFamilies {
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
	register("CountingLadder", func([]core.Key) []rung {
		out := make([]rung, rungs)
		for i := range out {
			knob := fmt.Sprintf("k=%d]", i)
			out[i] = rung{knob: knob, resolve: func() NamedBuilder {
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
	var fams []string
	for _, fam := range Families() {
		if _, ok := CodecFor(fam); ok {
			fams = append(fams, fam)
		}
	}
	if want := []string{"BTree", "IBTree", "PGM", "RBS", "RMI", "RS"}; !slices.Equal(fams, want) {
		t.Errorf("families with a codec: %v, want %v", fams, want)
	}
}
