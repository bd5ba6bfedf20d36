package main

import (
	"strings"
	"testing"
)

// goodExposition mirrors what the obs registry's /metrics emits: typed
// contiguous families, a labelled counter, and a summary with
// quantile pseudo-series.
const goodExposition = `# TYPE sosd_net_accepted_total counter
sosd_net_accepted_total 100
# TYPE sosd_net_batched_keys_total counter
sosd_net_batched_keys_total 60
# TYPE sosd_net_latency_ns summary
sosd_net_latency_ns{quantile="0.5"} 1500
sosd_net_latency_ns{quantile="0.99"} 90000
sosd_net_latency_ns_sum 1.2e+06
sosd_net_latency_ns_count 100
# TYPE sosd_shard_runs gauge
sosd_shard_runs{shard="0"} 2
sosd_shard_runs{shard="1"} 1
# TYPE sosd_store_flushes_total counter
sosd_store_flushes_total 12
# TYPE sosd_store_delta_freezes_total counter
sosd_store_delta_freezes_total 12
# TYPE sosd_store_run_probes_total counter
sosd_store_run_probes_total 340
# TYPE sosd_store_multirun_ops_total counter
sosd_store_multirun_ops_total 200
`

func TestLintClean(t *testing.T) {
	if problems := Lint(goodExposition); len(problems) != 0 {
		t.Fatalf("clean exposition flagged: %v", problems)
	}
	if problems := CheckLaws(Values(goodExposition)); len(problems) != 0 {
		t.Fatalf("law-satisfying exposition flagged: %v", problems)
	}
}

func TestLintAcceptsLiveRegistry(t *testing.T) {
	// The linter's contract is with the obs registry's /metrics; an escaped
	// label value with a space must parse.
	text := "# TYPE esc_total counter\n" +
		`esc_total{v="a b\"c\\d"} 1` + "\n"
	if problems := Lint(text); len(problems) != 0 {
		t.Fatalf("escaped labels flagged: %v", problems)
	}
}

func TestLintRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, text, want string
	}{
		{"untyped sample", "x_total 1\n", "no TYPE"},
		{"bad type", "# TYPE x sidecounter\nx 1\n", "unknown metric type"},
		{"dup family", "# TYPE x counter\nx 1\n# TYPE x counter\n", "declared twice"},
		{"dup series", "# TYPE x counter\nx 1\nx 2\n", "duplicate series"},
		{"bad value", "# TYPE x counter\nx one\n", "unparseable value"},
		{"bad name", "# TYPE 0x counter\n", "invalid metric name"},
		{"bad label name", "# TYPE x counter\nx{0bad=\"v\"} 1\n", "invalid label name"},
		{"unquoted label", "# TYPE x counter\nx{k=v} 1\n", "unquoted label value"},
		{"interleaved families", "# TYPE a counter\na 1\n# TYPE b counter\na{k=\"v\"} 2\nb 1\n", "contiguous"},
		{"resumed family", "# TYPE a counter\na 1\n# TYPE b counter\nb 1\n# TYPE c counter\na{k=\"v\"} 2\n", "contiguous"},
		{"blank line inside", "# TYPE x counter\n\nx 1\n", "blank line"},
		{"missing value", "# TYPE x counter\nx\n", "malformed sample"},
	}
	for _, c := range cases {
		problems := Lint(c.text)
		found := false
		for _, p := range problems {
			if strings.Contains(p, c.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want a problem containing %q, got %v", c.name, c.want, problems)
		}
	}
}

func TestCheckLawsViolations(t *testing.T) {
	base := Values(goodExposition)
	mutate := func(id string, v float64) map[string]float64 {
		m := map[string]float64{}
		for k, val := range base {
			m[k] = val
		}
		m[id] = v
		return m
	}
	cases := []struct {
		name string
		vals map[string]float64
		want string
	}{
		{"keys exceed accepted", mutate("sosd_net_batched_keys_total", 101), "batched keys"},
		{"lost flush", mutate("sosd_store_flushes_total", 11), "delta freezes"},
		{"probes below ops", mutate("sosd_store_run_probes_total", 100), "run probes"},
		{"latency overcount", mutate("sosd_net_latency_ns_count", 150), "latency count"},
	}
	for _, c := range cases {
		problems := CheckLaws(c.vals)
		found := false
		for _, p := range problems {
			if strings.Contains(p, c.want) && strings.Contains(p, "violated") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want a violation containing %q, got %v", c.name, c.want, problems)
		}
	}
	// A missing series is itself a failure, not a silent pass.
	short := map[string]float64{"sosd_net_accepted_total": 1}
	problems := CheckLaws(short)
	if len(problems) == 0 {
		t.Fatal("missing law series not reported")
	}
}
