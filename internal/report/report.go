// Package report is the typed result model of the benchmark harness:
// every experiment produces Tables — rows of string dimensions (which
// structure, which dataset, which workload) and numeric metrics with
// units — instead of printing prose. Sinks render the same tables as
// aligned human-readable text, CSV, or JSON/JSONL with run metadata,
// so a run is consumable by regression tracking, Pareto re-plotting,
// and CI perf gates as well as by eyes. The model mirrors how
// internal/registry made index families self-describing: the schema
// travels with the data, and downstream tools never parse prose.
package report

import (
	"fmt"
	"strconv"
)

// kind classifies a metric column. Values are stored as float64
// either way (counts stay exact up to 2^53); kind controls rendering:
// Int metrics print without a fractional part.
type kind string

const (
	kindFloat kind = "float"
	kindInt   kind = "int"
)

// dim is one string dimension column: a categorical axis of the
// experiment (family, config label, dataset, workload, thread count).
type dim struct {
	Name string `json:"name"`
}

// metric is one numeric column. Name is the display header (it may
// embed the unit for humans, e.g. "size(MB)"); Unit is the
// machine-readable unit; Prec is the decimal precision used when a
// Float metric is rendered as text or CSV.
type metric struct {
	Name string `json:"name"`
	Unit string `json:"unit,omitempty"`
	Kind kind   `json:"kind"`
	Prec int    `json:"prec,omitempty"`
}

// schema declares a table's columns: dimensions first, then metrics.
type schema struct {
	Dims    []dim    `json:"dims"`
	Metrics []metric `json:"metrics"`
}

// Row is one observation: len(Dims) == len(schema.Dims) and
// len(Metrics) == len(schema.Metrics), positionally matched.
type Row struct {
	Dims    []string  `json:"dims"`
	Metrics []float64 `json:"metrics"`
}

// Table is one result table of one experiment. An experiment may
// return several (e.g. a sweep plus a baseline section).
type Table struct {
	// Experiment is the catalog name of the experiment that produced
	// the table (e.g. "fig7").
	Experiment string `json:"experiment"`
	// Title is the human heading, e.g. the paper figure caption.
	Title  string `json:"title,omitempty"`
	Schema schema `json:"schema"`
	Rows   []Row  `json:"rows"`
	// Notes are free-text footnotes rendered after the rows.
	Notes []string `json:"notes,omitempty"`
}

// New starts a table. Declare columns with Dims/Float/Int before
// appending rows.
func New(experiment, title string) *Table {
	return &Table{Experiment: experiment, Title: title}
}

// Dims declares the dimension columns, in order.
func (t *Table) Dims(names ...string) *Table {
	for _, n := range names {
		t.Schema.Dims = append(t.Schema.Dims, dim{Name: n})
	}
	return t
}

// Float declares a float metric column with a unit and a text
// rendering precision.
func (t *Table) Float(name, unit string, prec int) *Table {
	t.Schema.Metrics = append(t.Schema.Metrics, metric{Name: name, Unit: unit, Kind: kindFloat, Prec: prec})
	return t
}

// Int declares an integer metric column.
func (t *Table) Int(name, unit string) *Table {
	t.Schema.Metrics = append(t.Schema.Metrics, metric{Name: name, Unit: unit, Kind: kindInt})
	return t
}

// Row appends one observation. Arity must match the declared schema;
// a mismatch is a programming error in the experiment and panics.
func (t *Table) Row(dims []string, metrics ...float64) *Table {
	if len(dims) != len(t.Schema.Dims) || len(metrics) != len(t.Schema.Metrics) {
		panic(fmt.Sprintf("report: %s: row arity %d dims/%d metrics does not match schema %d/%d",
			t.Experiment, len(dims), len(metrics), len(t.Schema.Dims), len(t.Schema.Metrics)))
	}
	t.Rows = append(t.Rows, Row{Dims: dims, Metrics: append([]float64(nil), metrics...)})
	return t
}

// Notef appends a formatted footnote.
func (t *Table) Notef(format string, args ...any) *Table {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
	return t
}

// Validate checks the table's internal consistency: a named
// experiment, valid metric kinds, and schema-matching row arity.
// Decoded (untrusted) tables must pass it before use.
func (t *Table) Validate() error {
	if t.Experiment == "" {
		return fmt.Errorf("report: table with empty experiment name")
	}
	for _, m := range t.Schema.Metrics {
		if m.Kind != kindFloat && m.Kind != kindInt {
			return fmt.Errorf("report: %s: metric %q has unknown kind %q", t.Experiment, m.Name, m.Kind)
		}
	}
	for i, r := range t.Rows {
		if len(r.Dims) != len(t.Schema.Dims) || len(r.Metrics) != len(t.Schema.Metrics) {
			return fmt.Errorf("report: %s: row %d arity %d dims/%d metrics does not match schema %d/%d",
				t.Experiment, i, len(r.Dims), len(r.Metrics), len(t.Schema.Dims), len(t.Schema.Metrics))
		}
	}
	return nil
}

// formatMetric renders one metric value per its column's kind.
func formatMetric(m metric, v float64) string {
	if m.Kind == kindInt {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', m.Prec, 64)
}
