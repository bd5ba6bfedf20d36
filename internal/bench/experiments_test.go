package bench

import (
	"bytes"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/search"
)

// Every experiment must run end-to-end at tiny scale through the
// catalog, and its rendered text must contain its table headers plus a
// handful of data rows. These are the integration tests for the full
// figure pipeline. They assert no numeric shape; the findings that are
// asserted live beside the structures they are about (fig13's in
// registry.TestFig13SizeBuysLog2Error), and the rest are ROADMAP
// item 5.

// renderCatalog runs a catalog experiment and renders its tables
// through the text sink.
func renderCatalog(t *testing.T, name string, o Options) string {
	t.Helper()
	exp, ok := Find(name)
	if !ok {
		t.Fatalf("experiment %q not in catalog", name)
	}
	tables, err := exp.Run(NewRun(o))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	sink := report.NewText(&buf)
	for i := range tables {
		if tables[i].Experiment != name {
			t.Errorf("%s returned a table labelled %q", name, tables[i].Experiment)
		}
		if err := sink.Table(&tables[i]); err != nil {
			t.Fatalf("%s: render: %v", name, err)
		}
	}
	if err := sink.Close(report.Meta{}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func runExperiment(t *testing.T, name string, wantMarkers ...string) {
	t.Helper()
	out := renderCatalog(t, name, tiny)
	for _, marker := range wantMarkers {
		if !strings.Contains(out, marker) {
			t.Errorf("%s output missing %q:\n%s", name, marker, clip(out))
		}
	}
	if strings.Count(out, "\n") < 4 {
		t.Errorf("%s produced almost no output:\n%s", name, clip(out))
	}
}

func clip(s string) string {
	if len(s) > 600 {
		return s[:600] + "..."
	}
	return s
}

func TestFig7EndToEnd(t *testing.T) {
	runExperiment(t, "fig7",
		"Figure 7", "amzn", "osm", "wiki", "face", "RMI", "FAST", "baseline")
}

func TestFig8EndToEnd(t *testing.T) {
	runExperiment(t, "fig8", "Figure 8", "FST", "Wormhole")
}

func TestFig9EndToEnd(t *testing.T) {
	runExperiment(t, "fig9", "Figure 9", "16000") // 4x of tiny.N
}

func TestFig10EndToEnd(t *testing.T) {
	runExperiment(t, "fig10", "Figure 10", "BTree32", "FAST32", "32", "64")
}

func TestFig11EndToEnd(t *testing.T) {
	runExperiment(t, "fig11", "Figure 11", "binary", "linear", "interpolation")
}

func TestFig12EndToEnd(t *testing.T) {
	runExperiment(t, "fig12", "Figure 12", "c-miss", "instr")
}

func TestFig14EndToEnd(t *testing.T) {
	runExperiment(t, "fig14", "Figure 14", "warm", "cold")
}

func TestFig15EndToEnd(t *testing.T) {
	runExperiment(t, "fig15", "Figure 15", "fence")
}

func TestFig16aEndToEnd(t *testing.T) {
	runExperiment(t, "fig16a", "Figure 16a", "Mlookups/s")
}

func TestFig16bEndToEnd(t *testing.T) {
	runExperiment(t, "fig16b", "Figure 16b", "RMI")
}

func TestFig16cEndToEnd(t *testing.T) {
	runExperiment(t, "fig16c", "Figure 16c", "miss/op")
}

func TestFig17EndToEnd(t *testing.T) {
	runExperiment(t, "fig17", "Figure 17", "tune(ms)", "build(ms)", "Wormhole")
}

func TestFig14ColdSlowerThanWarm(t *testing.T) {
	// The defining property of Figure 14 at any scale: evicting the
	// cache between lookups cannot make lookups faster. Assert it on
	// one structure with a safety margin for timer noise.
	e, err := NewEnv("amzn", 20000, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx := midVariant(e, "BTree")
	warm := MeasureWarm(e, idx, search.BinarySearch)
	cold := MeasureCold(e, idx, search.BinarySearch, 100)
	if cold.NsPerLookup < warm.NsPerLookup {
		t.Errorf("cold (%f) faster than warm (%f)", cold.NsPerLookup, warm.NsPerLookup)
	}
}

func TestServeObsSweepEndToEnd(t *testing.T) {
	runExperiment(t, "serve-obs",
		"Observability conservation laws", "law held", "offered", "served", "shed",
		"batch", "readamp", "traces", "closed", "open200%", "PGM")
}

func TestServeReplSweepEndToEnd(t *testing.T) {
	runExperiment(t, "serve-repl",
		"Replicated serving", "snap", "streamed", "busiest", "detect+promote", "ready")
}

// persistGolden is persist's table at tiny scale, rendered as text. It
// prices builds in key visits and snapshots in bytes, so it moves only
// when a codec, a file layout or a build's price does; regenerate with
//
//	go run ./cmd/sosd -n 4000 -lookups 400 -seed 7 persist > internal/bench/testdata/persist.golden
//
// and the diff is the claim, row by row.
const persistGolden = "testdata/persist.golden"

// checkPersistGolden renders persist at tiny scale and requires it to be
// the golden byte for byte.
func checkPersistGolden(t *testing.T) {
	t.Helper()
	want, err := os.ReadFile(persistGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderCatalog(t, "persist", tiny); got != string(want) {
		t.Fatalf("persist differs from %s; got:\n%s", persistGolden, got)
	}
}

// TestPersistSweepEndToEnd: persist reports work and bytes, so its
// whole table is a golden, not a list of markers.
func TestPersistSweepEndToEnd(t *testing.T) {
	checkPersistGolden(t)
}

// TestPersistSameUnderGOMAXPROCS: shard builds run concurrently, but
// what they build, and so what the snapshot holds, follows from the
// keys alone; the table is the golden at GOMAXPROCS 1, 2 and 8.
func TestPersistSameUnderGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		checkPersistGolden(t)
	}
}

// lsmScale is the scale serve-lsm's golden is pinned at: every policy
// row of workload A flushes, minors or majors, and the whole sweep
// replays in well under a second.
var lsmScale = Options{N: 4000, Lookups: 4000, Seed: 7}

// lsmGolden is serve-lsm's table at lsmScale, rendered as text. A change
// that moves a merge, its price or a read's probes moves it on purpose;
// regenerate with
//
//	go run ./cmd/sosd -n 4000 -lookups 4000 -seed 7 serve-lsm > internal/bench/testdata/serve-lsm.golden
//
// and the diff is the claim, row by row.
const lsmGolden = "testdata/serve-lsm.golden"

// checkLSMGolden renders serve-lsm at lsmScale and requires it to be the
// golden byte for byte.
func checkLSMGolden(t *testing.T) {
	t.Helper()
	want, err := os.ReadFile(lsmGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderCatalog(t, "serve-lsm", lsmScale); got != string(want) {
		t.Fatalf("serve-lsm differs from %s; got:\n%s", lsmGolden, got)
	}
}

// TestServeLSMSweepEndToEnd: serve-lsm replays seeded scripts and
// reports work, so its whole table is a golden, not a list of markers.
func TestServeLSMSweepEndToEnd(t *testing.T) {
	checkLSMGolden(t)
}

// TestServeLSMSameUnderGOMAXPROCS: a replayed store's merges follow
// from its op sequence, whatever the number of threads its compactor
// and builds may run on, so the table is the golden at GOMAXPROCS 1, 2
// and 8.
func TestServeLSMSameUnderGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		checkLSMGolden(t)
	}
}

// TestServeLSMTieringPaysWhereRetuningLives asserts README's tiering
// finding in key visits, sign and order only: on zipfian workload A a
// single-run RMI store spends more work per write than a tier4 one, and
// tiering saves RMI, whose every major re-tunes, a larger factor than
// BTree, whose major is a bulk load.
func TestServeLSMTieringPaysWhereRetuningLives(t *testing.T) {
	o := lsmScale
	o.Families = []string{"RMI", "BTree"}
	exp, _ := Find("serve-lsm")
	tables, err := exp.Run(NewRun(o))
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	col := -1
	for i, m := range tb.Schema.Metrics {
		if m.Name == "visits/w" {
			col = i
		}
	}
	if col < 0 {
		t.Fatal("serve-lsm has no visits/w column")
	}
	thresh := strconv.Itoa(compactThreshold(o.Lookups, 64))
	visits := func(family, policy string) float64 {
		t.Helper()
		for _, row := range tb.Rows {
			if slices.Equal(row.Dims, []string{family, "A", "zipf", policy, thresh}) {
				return row.Metrics[col]
			}
		}
		t.Fatalf("no %s/A/zipf/%s/%s row", family, policy, thresh)
		return 0
	}
	rmiSingle, rmiTier := visits("RMI", "single"), visits("RMI", "tier4")
	btSingle, btTier := visits("BTree", "single"), visits("BTree", "tier4")
	if rmiSingle <= rmiTier {
		t.Errorf("RMI single-run %.1f visits/write <= tier4 %.1f: tiering saved a re-tuning family nothing", rmiSingle, rmiTier)
	}
	if rmiSingle/rmiTier <= btSingle/btTier {
		t.Errorf("single/tier4 visits: RMI %.1f/%.1f <= BTree %.1f/%.1f: tiering must pay most where re-tuning lives",
			rmiSingle, rmiTier, btSingle, btTier)
	}
}

// TestFamilyDatasetFilters exercises the -families/-datasets options
// on a sweep experiment: only the requested rows may appear.
func TestFamilyDatasetFilters(t *testing.T) {
	o := tiny
	o.Families = []string{"RMI"}
	o.Datasets = []string{"osm"}
	exp, _ := Find("fig7")
	tables, err := exp.Run(NewRun(o))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) == 0 {
		t.Fatalf("filtered fig7 returned no rows")
	}
	for _, row := range tables[0].Rows {
		if row.Dims[0] != "osm" || row.Dims[1] != "RMI" {
			t.Errorf("filter leaked row %v", row.Dims)
		}
	}
}

// TestRoundTripRepresentative runs three representative experiments at
// smoke scale, writes them through the JSON sink, and unmarshals back:
// dims and metrics must survive byte-for-byte.
func TestRoundTripRepresentative(t *testing.T) {
	for _, name := range []string{"table1", "fig13", "serve-lsm"} {
		exp, ok := Find(name)
		if !ok {
			t.Fatalf("experiment %q not in catalog", name)
		}
		run := NewRun(tiny)
		tables, err := exp.Run(run)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		sink := report.NewJSON(&buf)
		for i := range tables {
			if err := sink.Table(&tables[i]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		meta := report.NewMeta("bench-test")
		meta.Datasets = run.DatasetChecksums()
		if err := sink.Close(meta); err != nil {
			t.Fatal(err)
		}
		doc, err := report.DecodeDocument(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if len(doc.Tables) != len(tables) {
			t.Fatalf("%s: %d tables decoded, want %d", name, len(doc.Tables), len(tables))
		}
		for i := range tables {
			got, want := doc.Tables[i], tables[i]
			if got.Experiment != want.Experiment || got.Title != want.Title {
				t.Errorf("%s: table %d header mismatch", name, i)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("%s: table %d has %d rows, want %d", name, i, len(got.Rows), len(want.Rows))
			}
			for j := range want.Rows {
				if !equalStrings(got.Rows[j].Dims, want.Rows[j].Dims) ||
					!equalFloats(got.Rows[j].Metrics, want.Rows[j].Metrics) {
					t.Errorf("%s: table %d row %d did not round-trip", name, i, j)
				}
			}
		}
		if name != "table1" && len(doc.Meta.Datasets) == 0 {
			t.Errorf("%s: run recorded no dataset checksums", name)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
