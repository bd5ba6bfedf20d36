package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// checkout makes a directory that holds BENCHMARK.json, as the root of a
// checkout does, the working directory for the rest of the test (tests
// start in this package's directory), and returns the declared spec. What
// a run leaves behind goes to that directory's benchmark/out.
func checkout(t *testing.T) *spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, specFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
	sp, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Nested: the grandchild is the child's business, not the root's.
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "grandchild", Start: 15, End: 25},
		// Adjacent to the first child.
		{ID: 4, Parent: 1, Name: "child", Start: 40, End: 50},
		// Overlapping each other (two workers) and sticking out of the parent.
		{ID: 5, Parent: 1, Name: "child", Start: 60, End: 90},
		{ID: 6, Parent: 1, Name: "child", Start: 80, End: 120},
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - (30 + 10 + 40), // children cover [10,50) and [60,100)
		2: 30 - 10,
		3: 10,
		4: 10,
		5: 30,
		6: 40,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	var total int64
	for _, tot := range spanTotals(spans) {
		total += int64(tot.Self)
	}
	// Self times partition the covered time: root's 100 plus the 20 that
	// span 6 sticks out, plus the 10 where spans 5 and 6 overlap.
	if total != 130 {
		t.Errorf("self times sum to %d, want 130", total)
	}
}

func TestWindowStatistics(t *testing.T) {
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median of four = %v, want 4", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %v, want 5", got)
	}
	if got := spread([]float64{90, 100, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread = %v, want 0.2", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}

	// A pass reports the median of its windows, not their mean.
	ps := &pass{}
	for _, ops := range []int64{100, 100, 100, 1000} {
		ps.windows = append(ps.windows, &window{dur: 1e9, ops: ops})
	}
	r := &result{Metrics: metrics{}, Spread: map[string]float64{}, Samples: map[string]uint64{}}
	r.summarise(ps, 1e3)
	if got := r.Metrics["ops_s"].Value; got != 100 {
		t.Errorf("ops_s = %v, want the median window, 100", got)
	}
	if got := r.Spread["ops_s"]; got != 9 {
		t.Errorf("window spread = %v, want 9", got)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	const n = 20_000
	streams := func(seed uint64) []uint64 {
		ks, err := genKeySet(dataset.Amzn, n)
		if err != nil {
			t.Fatal(err)
		}
		ident := identity(n)
		mixed := mixedStreams(ks, loadWorkers, 4_000, 0.5, seed)
		return []uint64{
			zipfPool(ks, ident, 1<<12, seed, true).checksum(),
			uniformPool(ks, ident, 1<<12, seed).checksum(),
			mixed[0].checksum(), mixed[1].checksum(),
		}
	}
	a, again, b := streams(7), streams(7), streams(8)
	for i := range a {
		if a[i] != again[i] {
			t.Errorf("stream %d: seed 7 gave %016x, then %016x", i, a[i], again[i])
		}
		if a[i] == b[i] {
			t.Errorf("stream %d: seeds 7 and 8 gave the same checksum %016x", i, a[i])
		}
	}
}

func TestOracleValues(t *testing.T) {
	key := uint64(12345)
	tag := writeTag(key, 1, 99)
	if !validRead(key, tag, 5) || !validRead(key, 5, 5) {
		t.Error("a written value and the original must both be valid reads")
	}
	if validRead(key, writeTag(key+1, 1, 99), 5) || validRead(key, 6, 5) {
		t.Error("another key's value, or any other value, must not be a valid read")
	}
	if writeTag(key, 0, 1) == writeTag(key, 0, 2) || writeTag(key, 0, 1) == writeTag(key, 1, 1) {
		t.Error("every write of a key must carry its own value")
	}
	ms := []*mixedStream{
		{keys: []uint64{1, 2, 1}, isPut: []bool{true, false, true}},
		{keys: []uint64{1}, isPut: []bool{true}},
	}
	// Worker 0 ran 4 ops (one lap and one more): puts to key 1 numbered 0, 1, 2.
	last := lastWrites(ms, []int64{4, 1})
	if want := [2]uint64{writeTag(1, 0, 2), writeTag(1, 1, 0)}; last[1] != want {
		t.Errorf("last writes of key 1 = %x, want %x", last[1], want)
	}
	if _, ok := last[2]; ok {
		t.Error("key 2 was only read")
	}
}

func TestSpec(t *testing.T) {
	sp := checkout(t)
	// The issue lists 11 end-to-end and 113 per-layer metrics. The
	// contract of BENCHMARK.json asks every workload for every end-to-end
	// metric, never 0 and steady from run to run, so the end-to-end list
	// is the 3 that every workload has and this sandbox holds steady; the
	// rest of the issue's 11 are per-layer metrics under the same names.
	// Its 10 bench.<metric>.<workload> names are 2, since a result
	// already belongs to one workload. See README.md, "Departures".
	if len(sp.Workloads) != 5 || len(sp.EndToEnd) != 3 || len(sp.PerLayer) != 113 {
		t.Errorf("declared %d workloads, %d end-to-end and %d per-layer metrics, want 5, 3, 113",
			len(sp.Workloads), len(sp.EndToEnd), len(sp.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not of the allowed form", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range sp.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	setup := false
	for _, d := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is not of the allowed form", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range sp.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v is not in (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range sp.PerLayer {
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", sp.RunSeconds)
	}
}

// smoke runs the command in quick mode in a checkout of its own and
// returns what it printed, split into metric lines and result lines, and
// the results it saved.
func smoke(t *testing.T, extra ...string) (sp *spec, lines [][]string, results []driverLine, saved []result) {
	t.Helper()
	sp = checkout(t)
	args := append([]string{"-quick", "-seed", "11", "-out", "results.jsonl"}, extra...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if strings.HasPrefix(line, "{") {
			var r driverLine
			dec := json.NewDecoder(strings.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&r); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			results = append(results, r)
			continue
		}
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		lines = append(lines, strings.Fields(line))
	}
	saved, err := readResults("results.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(outDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != traceFile {
			t.Errorf("the run left %s behind in %s", e.Name(), outDir)
		}
	}
	return sp, lines, results, saved
}

// checkEmitted asserts that every result line carries exactly the
// metrics of list with their units, and that every printed line names a
// declared metric of a declared workload, once, with its unit. It returns
// the printed metrics by workload.
func checkEmitted(t *testing.T, sp *spec, list []metricSpec, lines [][]string, results []driverLine) map[string]map[string]bool {
	t.Helper()
	if len(results) != len(sp.Workloads) {
		t.Fatalf("%d result lines for %d workloads", len(results), len(sp.Workloads))
	}
	units := map[string]string{}
	for _, d := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		units[d.Name] = d.Unit
	}
	for i, r := range results {
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", sp.Workloads[i].Name, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(list) {
			t.Errorf("%s: %d metrics in the result line, %d declared", sp.Workloads[i].Name, len(r.Metrics), len(list))
		}
		for _, d := range list {
			if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: the result line has metric %s as %+v (present %v), declared in %s", sp.Workloads[i].Name, d.Name, m, ok, d.Unit)
			}
		}
	}
	printed := map[string]map[string]bool{}
	for _, f := range lines {
		if len(f) != 4 {
			t.Errorf("line %q is not `workload metric value unit`", strings.Join(f, " "))
			continue
		}
		if printed[f[0]] == nil {
			printed[f[0]] = map[string]bool{}
		}
		if printed[f[0]][f[1]] {
			t.Errorf("%s %s is printed twice", f[0], f[1])
		}
		printed[f[0]][f[1]] = true
		if unit, ok := units[f[1]]; !sp.hasWorkload(f[0]) || !ok || unit != f[3] {
			t.Errorf("line %q: undeclared workload or metric, or wrong unit", strings.Join(f, " "))
		}
	}
	return printed
}

func TestQuickSmokeUntraced(t *testing.T) {
	sp, lines, results, _ := smoke(t, "-seconds", "0.25")
	printed := checkEmitted(t, sp, sp.EndToEnd, lines, results)
	for i, r := range results {
		name := sp.Workloads[i].Name
		for metric, m := range r.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, metric, m.Value)
			}
			if !printed[name][metric] {
				t.Errorf("%s: end-to-end metric %s is not printed", name, metric)
			}
		}
		// The timings that are not gated are printed by every run all the same.
		if !printed[name]["ops_s"] || !printed[name]["read_p50_us"] {
			t.Errorf("%s: ops_s and read_p50_us are not printed by the untraced run", name)
		}
	}
}

func TestQuickSmokeTraced(t *testing.T) {
	sp, lines, results, saved := smoke(t, "-seconds", "0.5", "-trace", "1")
	printed := checkEmitted(t, sp, sp.PerLayer, lines, results)

	// Every declared name is measured and printed by some workload, the
	// end-to-end ones by every workload, and nothing is measured that is
	// not declared.
	declared := map[string]bool{}
	for _, d := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		declared[d.Name] = true
	}
	by := map[string]metrics{}
	for _, r := range saved {
		by[r.Workload] = r.Metrics
		for name := range r.Metrics {
			if !declared[name] {
				t.Errorf("%s measures %s, which BENCHMARK.json does not declare", r.Workload, name)
			}
			if !printed[r.Workload][name] {
				t.Errorf("%s measures %s and does not print it", r.Workload, name)
			}
		}
		for _, d := range sp.EndToEnd {
			if _, ok := r.Metrics[d.Name]; !ok {
				t.Errorf("%s does not measure the end-to-end metric %s", r.Workload, d.Name)
			}
		}
	}
	for name := range declared {
		anywhere := false
		for _, m := range by {
			_, ok := m[name]
			anywhere = anywhere || ok
		}
		if !anywhere {
			t.Errorf("no workload measures the declared metric %s", name)
		}
	}
	if info, err := os.Stat(filepath.Join(outDir, traceFile)); err != nil || info.Size() == 0 {
		t.Errorf("the traced run wrote no %s: %v", traceFile, err)
	}

	// The self times of each ladder add up to its top rung.
	rb := by["routed-batch"]
	v := func(m metrics, name string) float64 {
		if _, ok := m[name]; !ok {
			t.Errorf("metric %s is missing", name)
		}
		return m[name].Value
	}
	near := func(what string, got, want float64) {
		if math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Errorf("%s: self times add up to %v, the top rung is %v", what, got, want)
		}
	}
	near("point read ladder (ns)",
		v(rb, "index.lookup_ns")+v(rb, "search.self_ns")+v(rb, "serve.self_get_ns")+1e3*v(rb, "net.self_point_us")+1e3*v(rb, "repl.self_point_us"),
		1e3*v(rb, "repl.router_point_us"))
	near("batch read ladder (ns per key)",
		v(rb, "table.getbatch_ns_key")+v(rb, "serve.self_getbatch_ns_key")+v(rb, "net.self_batch_ns_key")+v(rb, "repl.self_batch_ns_key"),
		v(rb, "repl.router_batch_ns_key"))
	sm := by["store-mixed"]
	near("write ladder (ns)", v(sm, "serve.put_mem_ns")+v(sm, "persist.self_put_ns"), v(sm, "serve.put_wal_ns"))

	// Each layer works in one workload and is idle in another.
	if wp := by["wire-point"]; v(wp, "net.self_point_us") < 0.9*v(wp, "net.point_rtt_us") {
		t.Errorf("wire-point: the wire's self time %v is under 90%% of the round trip %v", v(wp, "net.self_point_us"), v(wp, "net.point_rtt_us"))
	}
	for wl, m := range by {
		for name := range m {
			layer, _, _ := strings.Cut(name, ".")
			switch {
			case layer == "net" && (wl == "idx-lookup" || wl == "store-read" || wl == "store-mixed"):
				t.Errorf("%s reports %s, but has no wire", wl, name)
			case strings.HasPrefix(name, "repl.self_") && wl != "routed-batch":
				t.Errorf("%s reports %s, but has no router", wl, name)
			}
		}
	}
	if v(sm, "persist.wal_bytes_per_put") < 23.5 {
		t.Errorf("store-mixed: %v WAL bytes per put, want one 24-byte record or more", v(sm, "persist.wal_bytes_per_put"))
	}
	sr := by["store-read"]
	for _, name := range []string{"persist.wal_bytes_per_put", "persist.snapshot_bytes_per_put", "persist.fsyncs_per_kput"} {
		if v(sr, name) != 0 {
			t.Errorf("store-read: %s = %v, but nothing persists during a read-only workload", name, v(sr, name))
		}
	}
}

// TestOracleCatchesCorruption spoils one expected payload of each
// workload's oracle: the run must count failures. A failure makes the
// command exit non-zero, which the last workload shows.
func TestOracleCatchesCorruption(t *testing.T) {
	sp := checkout(t)
	for _, w := range sp.Workloads {
		c := &config{n: 20_000, seed: 5, seconds: 0.2, quick: true, corrupt: true, tmpRoot: t.TempDir(), log: io.Discard}
		res, err := runWorkload(c, w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed == 0 {
			t.Errorf("%s: a corrupted expected payload went unnoticed", w.Name)
		}
	}
}

func TestCompare(t *testing.T) {
	sp := checkout(t)
	// Five runs a side. The gated metrics repeat but for heap_mb, whose
	// runs spread by heapSpread around heapMB; ops_s, which is not gated,
	// spreads by 10 % around opsPerSec.
	write := func(name string, indexBytes, heapMB, heapSpread, opsPerSec float64) string {
		for _, dev := range []float64{-1, -0.5, 0, 0.5, 1} {
			r := &result{Workload: "store-read", Metrics: metrics{
				"index_bytes_per_key": {indexBytes, "B"}, "heap_mb": {heapMB * (1 + dev*heapSpread/1.5), "MB"},
				"setup_s": {1, "s"}, "ops_s": {opsPerSec * (1 + dev*0.1/1.5), "ops/s"},
			}}
			if err := appendResult(name, r); err != nil {
				t.Fatal(err)
			}
		}
		return name
	}
	a := write("a.jsonl", 100, 50, 0.01, 1e6)
	verdicts := func(b string) (string, bool) {
		var out bytes.Buffer
		worse, err := compareFiles(&out, sp, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return out.String(), worse
	}
	row := func(out, metric string) string {
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[1] == metric {
				return f[len(f)-1]
			}
		}
		return "no row"
	}
	out, worse := verdicts(write("larger.jsonl", 103, 52, 0.01, 0.95e6))
	if row(out, "index_bytes_per_key") != "worse" || row(out, "heap_mb") != "within" || row(out, "setup_s") != "within" || !worse {
		t.Errorf("a 3%% larger index and 4%% more heap:\n%s", out)
	}
	if row(out, "ops_s") != "unresolved" {
		t.Errorf("5%% fewer ops/s under a 10%% run-to-run spread:\n%s", out)
	}
	out, worse = verdicts(write("smaller.jsonl", 80, 40, 0.01, 0.5e6))
	if row(out, "index_bytes_per_key") != "better" || row(out, "heap_mb") != "better" || worse {
		t.Errorf("a 20%% smaller index and 20%% less heap:\n%s", out)
	}
	if row(out, "ops_s") != "worse" {
		t.Errorf("half the ops/s is worse, though not gated:\n%s", out)
	}
	out, worse = verdicts(write("noisy.jsonl", 100, 60, 0.3, 1.5e6))
	if row(out, "heap_mb") != "unresolved" || row(out, "ops_s") != "better" || worse {
		t.Errorf("20%% more heap under a 30%% spread, and half as many ops/s again:\n%s", out)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", a, "larger.jsonl"}, &stdout, &stderr); code != 1 {
		t.Errorf("-compare with a worse gated row exited %d, want 1", code)
	}
	if code := run([]string{"-compare", a, "smaller.jsonl"}, &stdout, &stderr); code != 0 {
		t.Errorf("-compare with only an ungated row worse exited %d, want 0", code)
	}
}
