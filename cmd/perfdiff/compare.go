package main

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/report"
)

// direction says which way a metric may drift before it counts as a
// regression, keyed by the unit declared in the table schema.
type direction int

const (
	neutral      direction = iota // no better/worse: never gated
	lowerBetter                   // latency, size, misses: up is bad
	higherBetter                  // throughput, speedup: down is bad
)

// unitDirection classifies every unit the experiment catalog emits.
// Unknown units are neutral: a new experiment's metrics stay ungated
// until a direction is added here, which is the safe default.
func unitDirection(unit string) direction {
	switch unit {
	case "ns", "us", "µs", "ms", "s", "B", "KB", "MB", "GB", "bytes",
		"misses/op", "instr/op":
		return lowerBetter
	case "x", "M/s", "k/s", "kops/s", "ops/s", "lookups/s", "keys/s":
		return higherBetter
	}
	return neutral
}

// Delta is one watched metric compared across the two documents.
type Delta struct {
	Key       string // experiment/title/dims/metric, human-readable
	Unit      string
	Base      float64
	Current   float64
	Pct       float64 // signed change in the regression direction: positive = worse
	Regressed bool
}

// Result is a full document comparison.
type Result struct {
	Deltas      []Delta
	Regressions []Delta
	// OnlyBaseline and OnlyCurrent list row/metric keys present on one
	// side only; reported, never fatal.
	OnlyBaseline []string
	OnlyCurrent  []string
	Threshold    float64
}

// rowKey identifies a row across documents: the experiment, the table
// title, and the dimension values, joined unambiguously.
func rowKey(t *report.Table, r *report.Row) string {
	parts := append([]string{t.Experiment, t.Title}, r.Dims...)
	return strings.Join(parts, "\x1f")
}

// metricEntry is one gateable observation in a document.
type metricEntry struct {
	key  string // rowKey + metric name
	disp string // human-readable key for reports
	unit string
	dir  direction
	val  float64
}

// index flattens a document into its gateable metric entries.
func index(d *report.Document) map[string]metricEntry {
	out := make(map[string]metricEntry)
	for i := range d.Tables {
		t := &d.Tables[i]
		for j := range t.Rows {
			r := &t.Rows[j]
			rk := rowKey(t, r)
			for m, metric := range t.Schema.Metrics {
				dir := unitDirection(metric.Unit)
				if dir == neutral {
					continue
				}
				key := rk + "\x1f" + metric.Name
				disp := t.Experiment + ": " + strings.Join(r.Dims, "/") + " " + metric.Name
				out[key] = metricEntry{key: key, disp: disp, unit: metric.Unit, dir: dir, val: r.Metrics[m]}
			}
		}
	}
	return out
}

// Compare decodes both documents and gates every directional metric
// present in both. threshold is in percent: a lower-better metric
// regresses when current > base*(1+threshold/100), a higher-better
// metric when current < base*(1-threshold/100). Zero-valued baselines
// are skipped (no meaningful ratio).
func Compare(baseline, current []byte, threshold float64) (*Result, error) {
	bd, err := report.DecodeDocument(bytes.NewReader(baseline))
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	cd, err := report.DecodeDocument(bytes.NewReader(current))
	if err != nil {
		return nil, fmt.Errorf("current: %w", err)
	}
	bi, ci := index(bd), index(cd)

	res := &Result{Threshold: threshold}
	for key, b := range bi {
		c, ok := ci[key]
		if !ok {
			res.OnlyBaseline = append(res.OnlyBaseline, b.disp)
			continue
		}
		if b.val == 0 {
			continue
		}
		// Positive pct always means "worse", whichever the direction.
		pct := (c.val - b.val) / b.val * 100
		if b.dir == higherBetter {
			pct = -pct
		}
		d := Delta{Key: b.disp, Unit: b.unit, Base: b.val, Current: c.val, Pct: pct, Regressed: pct > threshold}
		res.Deltas = append(res.Deltas, d)
		if d.Regressed {
			res.Regressions = append(res.Regressions, d)
		}
	}
	for key, c := range ci {
		if _, ok := bi[key]; !ok {
			res.OnlyCurrent = append(res.OnlyCurrent, c.disp)
		}
	}
	sort.Slice(res.Deltas, func(i, j int) bool { return res.Deltas[i].Pct > res.Deltas[j].Pct })
	sort.Slice(res.Regressions, func(i, j int) bool { return res.Regressions[i].Pct > res.Regressions[j].Pct })
	sort.Strings(res.OnlyBaseline)
	sort.Strings(res.OnlyCurrent)
	return res, nil
}

// Print renders the comparison, worst drift first.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "perfdiff: %d metric(s) compared, threshold %.0f%%\n", len(r.Deltas), r.Threshold)
	for _, d := range r.Deltas {
		status := "ok"
		if d.Regressed {
			status = "REGRESSED"
		}
		fmt.Fprintf(w, "  %-9s %+7.1f%%  %s: %.2f -> %.2f %s\n", status, d.Pct, d.Key, d.Base, d.Current, d.Unit)
	}
	for _, k := range r.OnlyBaseline {
		fmt.Fprintf(w, "  missing in current run (not gated): %s\n", k)
	}
	for _, k := range r.OnlyCurrent {
		fmt.Fprintf(w, "  new metric (not gated): %s\n", k)
	}
}
