package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// spec is BENCHMARK.json: the declared workloads and metrics. The
// program emits exactly the declared names, so the file is the one
// place that lists them.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// specFile is read from the directory the command runs in, the root of
// a checkout.
const specFile = "BENCHMARK.json"

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the outcome of one workload run. metrics holds everything
// measured, all of it from the untraced pass but the tracing overhead,
// the tracer's phases and the ladders, which only a traced run has.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   metrics            `json:"metrics"`
	Spread    map[string]float64 `json:"spread"`  // (max − min)/median over the windows, per windowed metric
	Samples   map[string]uint64  `json:"samples"` // samples behind each latency metric, per window
}

// declared picks the declared metrics of one list out of everything
// measured, for the result line. A per-layer metric of a layer the
// workload does not reach reads 0; a missing end-to-end metric is an
// error, since every workload reports every one of them.
func (r *result) declared(list []metricSpec, required bool) (metrics, error) {
	out := metrics{}
	for _, d := range list {
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok && required:
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", r.Workload, d.Name)
		case !ok:
			m = metric{0, d.Unit}
		case m.Unit != d.Unit:
			return nil, fmt.Errorf("%s: metric %s measured in %s, declared in %s", r.Workload, d.Name, m.Unit, d.Unit)
		}
		out[d.Name] = m
	}
	return out, nil
}

// driverLine is the last line of a run's standard output.
type driverLine struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}
