package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// readResults reads a file written with -out: one result per line.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// sample is what a result file holds for one metric of one workload:
// its value in every run, and the widest window spread any run saw.
type sample struct {
	values       []float64
	windowSpread float64
	windowed     bool
}

// summary returns the median of the runs and their spread. With four
// runs or more the spread is the distance between the quartiles as a
// share of the median, the run-to-run spread the acceptance check uses;
// with fewer it is the spread of the windows inside the runs, which only
// the windowed metrics have: known says whether there is a spread at all.
func (s sample) summary() (med, spread float64, known bool) {
	med = median(s.values)
	if len(s.values) < 4 || med == 0 {
		return med, s.windowSpread, s.windowed
	}
	q1, q3 := quartiles(s.values)
	return med, (q3 - q1) / math.Abs(med), true
}

// collect groups a file's runs by workload and metric. A traced run
// counts like any other: what it shares with an untraced run it measured
// in an untraced pass of the same length.
func collect(results []result) map[string]map[string]sample {
	out := map[string]map[string]sample{}
	for _, r := range results {
		byMetric := out[r.Workload]
		if byMetric == nil {
			byMetric = map[string]sample{}
			out[r.Workload] = byMetric
		}
		for name, m := range r.Metrics {
			s := byMetric[name]
			s.values = append(s.values, m.Value)
			if ws, ok := r.Spread[name]; ok {
				s.windowSpread, s.windowed = max(s.windowSpread, ws), true
			}
			byMetric[name] = s
		}
	}
	return out
}

// verdict judges median b against median a by the metric's direction
// and a bound. unresolved means the runs cannot tell a change of the
// bound's size from noise. A gated metric has its bound from
// BENCHMARK.json, and is unresolved when the spread of either side is
// wider than it. An ungated one has no bound but the spread the runs
// themselves measured (the wider side's): a change beyond it is better or
// worse, a change inside it unresolved, and so is any change when no
// spread is known.
func verdict(d metricSpec, gated bool, a, b, spread float64, known bool) string {
	change := 0.0 // positive is worse
	if a != 0 {
		change = (b - a) / math.Abs(a)
		if d.Better == "higher" {
			change = -change
		}
	}
	if gated {
		switch {
		case a == 0 || spread > d.Bound:
			return "unresolved"
		case change > d.Bound:
			return "worse"
		case change < -d.Bound:
			return "better"
		}
		return "within"
	}
	switch {
	case a == b:
		return "within"
	case a == 0 || !known:
		return "unresolved"
	case change > spread:
		return "worse"
	case change < -spread:
		return "better"
	}
	return "unresolved"
}

// compareFiles prints one row per workload and metric, judging file b
// (the change) against file a (the parent). Only the end-to-end metrics
// are gated: it reports whether any of their rows is worse.
func compareFiles(w io.Writer, sp *spec, aPath, bPath string) (worse bool, err error) {
	aRes, err := readResults(aPath)
	if err != nil {
		return false, err
	}
	bRes, err := readResults(bPath)
	if err != nil {
		return false, err
	}
	a, b := collect(aRes), collect(bRes)
	fmt.Fprintf(w, "%-13s %-34s %14s %8s %14s %8s %8s %8s  %s\n", "workload", "metric", "a median", "a spread", "b median", "b spread", "change", "bound", "verdict")
	for _, gated := range []bool{true, false} {
		list := sp.EndToEnd
		if !gated {
			list = sp.PerLayer
		}
		for _, wl := range sp.Workloads {
			for _, d := range list {
				as, aok := a[wl.Name][d.Name]
				bs, bok := b[wl.Name][d.Name]
				if !aok || !bok {
					continue
				}
				am, asp, aKnown := as.summary()
				bm, bsp, bKnown := bs.summary()
				spread, known := max(asp, bsp), aKnown && bKnown
				v := verdict(d, gated, am, bm, spread, known)
				worse = worse || (gated && v == "worse")
				change := 0.0
				if am != 0 {
					change = (bm - am) / math.Abs(am)
				}
				bound := fmt.Sprintf("%.1f%%", 100*d.Bound)
				if !gated {
					bound = "spread"
				}
				fmt.Fprintf(w, "%-13s %-34s %14.6g %7.1f%% %14.6g %7.1f%% %+7.1f%% %8s  %s\n",
					wl.Name, d.Name, am, 100*asp, bm, 100*bsp, 100*change, bound, v)
			}
		}
	}
	return worse, nil
}
