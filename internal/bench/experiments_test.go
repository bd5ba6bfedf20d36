package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/perfsim"
	"repro/internal/report"
)

// Every experiment must run end-to-end at tiny scale through the
// catalog, and its rendered text must contain its table headers plus a
// handful of data rows. These are the integration tests for the full
// figure pipeline. The sweep figures' clock-free columns are goldens
// (checkSweepGolden), and every unfenced timed pass is payload-checked
// by the experiment itself. They assert no finding; the findings that
// are asserted live beside the structures they are about (fig13's in
// registry.TestFig13SizeBuysLog2Error), and the rest are ROADMAP
// item 5.

// runCatalog runs a catalog experiment at o and returns its tables.
func runCatalog(t *testing.T, name string, o Options) []report.Table {
	t.Helper()
	exp, ok := Find(name)
	if !ok {
		t.Fatalf("experiment %q not in catalog", name)
	}
	tables, err := exp.Run(NewRun(o))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i := range tables {
		if tables[i].Experiment != name {
			t.Errorf("%s returned a table labelled %q", name, tables[i].Experiment)
		}
	}
	return tables
}

// renderCatalog runs a catalog experiment and renders its tables
// through the text sink.
func renderCatalog(t *testing.T, name string, o Options) string {
	t.Helper()
	return renderTables(t, name, runCatalog(t, name, o))
}

func renderTables(t *testing.T, name string, tables []report.Table) string {
	t.Helper()
	var buf bytes.Buffer
	sink := report.NewText(&buf)
	for i := range tables {
		if err := sink.Table(&tables[i]); err != nil {
			t.Fatalf("%s: render: %v", name, err)
		}
	}
	if err := sink.Close(report.Meta{}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// runExperiment runs an experiment at tiny scale, requires its text to
// carry every marker, and returns its tables.
func runExperiment(t *testing.T, name string, wantMarkers ...string) []report.Table {
	t.Helper()
	tables := runCatalog(t, name, tiny)
	out := renderTables(t, name, tables)
	for _, marker := range wantMarkers {
		if !strings.Contains(out, marker) {
			t.Errorf("%s output missing %q:\n%s", name, marker, clip(out))
		}
	}
	if strings.Count(out, "\n") < 4 {
		t.Errorf("%s produced almost no output:\n%s", name, clip(out))
	}
	return tables
}

// sweepRows renders the clock-free part of a sweep figure's tables: per
// table its title, then per row its dimensions and, exactly, each
// metric not read off a clock (size in MB, log2 error, and fig12's
// simulated misses and instructions per lookup).
func sweepRows(tables []report.Table) string {
	var b strings.Builder
	for _, tb := range tables {
		fmt.Fprintf(&b, "## %s\n", tb.Title)
		for _, row := range tb.Rows {
			b.WriteString(strings.Join(row.Dims, "\t"))
			for i, m := range tb.Schema.Metrics {
				switch m.Unit {
				case "MB", "log2", "misses/op", "instr/op":
					fmt.Fprintf(&b, "\t%s=%s", m.Name, strconv.FormatFloat(row.Metrics[i], 'g', -1, 64))
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// checkSweepGolden holds a sweep figure's rows at tiny scale to
// testdata/sweep/<name>.golden: which configurations it built, in which
// order, and their sizes, log2 errors and simulated counters, exactly. A missing golden is
// written and fails the test; regenerate all of them with
//
//	rm internal/bench/testdata/sweep/*.golden; go test -run EndToEnd ./internal/bench; go test -run EndToEnd ./internal/bench
//
// and the diff is the claim, row by row.
func checkSweepGolden(t *testing.T, name string, tables []report.Table) {
	t.Helper()
	path := filepath.Join("testdata", "sweep", name+".golden")
	got := sweepRows(tables)
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote missing golden %s", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("%s rows differ from %s; got:\n%s", name, path, got)
	}
}

func clip(s string) string {
	if len(s) > 600 {
		return s[:600] + "..."
	}
	return s
}

func TestFig7EndToEnd(t *testing.T) {
	checkSweepGolden(t, "fig7", runExperiment(t, "fig7",
		"Figure 7", "amzn", "osm", "wiki", "face", "RMI", "FAST", "baseline"))
}

func TestFig8EndToEnd(t *testing.T) {
	checkSweepGolden(t, "fig8", runExperiment(t, "fig8", "Figure 8", "FST", "Wormhole"))
}

func TestFig9EndToEnd(t *testing.T) {
	checkSweepGolden(t, "fig9", runExperiment(t, "fig9", "Figure 9", "16000")) // 4x of tiny.N
}

func TestFig10EndToEnd(t *testing.T) {
	checkSweepGolden(t, "fig10", runExperiment(t, "fig10", "Figure 10", "BTree32", "FAST32", "32", "64"))
}

func TestFig11EndToEnd(t *testing.T) {
	checkSweepGolden(t, "fig11", runExperiment(t, "fig11", "Figure 11", "binary", "linear", "interpolation"))
}

func TestFig12EndToEnd(t *testing.T) {
	checkSweepGolden(t, "fig12", runExperiment(t, "fig12", "Figure 12", "c-miss", "instr"))
}

func TestFig13EndToEnd(t *testing.T) {
	checkSweepGolden(t, "fig13", runExperiment(t, "fig13", "Figure 13", "log2err"))
}

func TestFig14EndToEnd(t *testing.T) {
	checkSweepGolden(t, "fig14", runExperiment(t, "fig14", "Figure 14", "warm", "cold"))
}

func TestFig15EndToEnd(t *testing.T) {
	checkSweepGolden(t, "fig15", runExperiment(t, "fig15", "Figure 15", "fence"))
}

func TestFig16aEndToEnd(t *testing.T) {
	runExperiment(t, "fig16a", "Figure 16a", "Mlookups/s")
}

func TestFig16bEndToEnd(t *testing.T) {
	checkSweepGolden(t, "fig16b", runExperiment(t, "fig16b", "Figure 16b", "RMI"))
}

func TestFig16cEndToEnd(t *testing.T) {
	runExperiment(t, "fig16c", "Figure 16c", "miss/op")
}

func TestFig17EndToEnd(t *testing.T) {
	runExperiment(t, "fig17", "Figure 17", "tune(ms)", "build(ms)", "Wormhole")
}

func TestFig14ColdSlowerThanWarm(t *testing.T) {
	// The defining property of Figure 14 at any scale: evicting the
	// cache between lookups costs cache misses. Asserted in work, not
	// wall time: perfsim replays one structure's lookups warm, then
	// through coldPass, the pass MeasureCold times, with eviction a
	// stream over a region eight times the simulated cache.
	e, err := NewEnv("amzn", 20000, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := midConfig(e, "BTree")
	if !ok {
		t.Fatal("no BTree variant")
	}
	m := perfsim.New(perfsim.CacheFor(len(e.Keys))) // 128 KiB at 20k keys
	tr, ok := perfsim.For(c.idx, m, e.Keys)
	if !ok {
		t.Fatal("BTree has no traced form")
	}
	const coldOps, evictBytes = 100, 1 << 20
	flush := m.Alloc(evictBytes)
	var misses uint64
	lookup := func(x core.Key) {
		before := m.Counters().CacheMisses
		tr.Lookup(x)
		misses += m.Counters().CacheMisses - before
	}
	for _, x := range e.Lookups {
		tr.Lookup(x)
	}
	for _, x := range e.Lookups[:coldOps] {
		lookup(x)
	}
	warm := float64(misses) / coldOps
	misses = 0
	n := coldPass(e, coldOps, func() {
		for off := 0; off < evictBytes; off += 64 {
			m.Access(flush, off, 1)
		}
	}, lookup)
	if cold := float64(misses) / float64(n); cold <= warm {
		t.Errorf("cold pass %.2f simulated misses per lookup, warm %.2f", cold, warm)
	} else {
		t.Logf("simulated misses per lookup: cold %.2f, warm %.2f", cold, warm)
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
