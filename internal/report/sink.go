package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Sink consumes result tables as a run produces them. Streaming sinks
// (text, CSV, JSONL) render each table on arrival; the JSON sink
// buffers the whole document. Close finalizes the output with the run
// metadata — metadata comes last in the contract precisely so that a
// sink can record facts only known at end of run.
type Sink interface {
	Table(*Table) error
	Close(Meta) error
}

// Document is the JSON output shape: one run, its metadata, and every
// table it produced.
type Document struct {
	Meta   Meta    `json:"meta"`
	Tables []Table `json:"tables"`
}

// DecodeDocument parses and validates a JSON document produced by the
// JSON sink.
func DecodeDocument(r io.Reader) (*Document, error) {
	var d Document
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("report: decode document: %w", err)
	}
	for i := range d.Tables {
		if err := d.Tables[i].Validate(); err != nil {
			return nil, err
		}
	}
	return &d, nil
}

// ---------------------------------------------------------------- text

type textSink struct {
	w     io.Writer
	wrote bool
}

// NewText returns the human-readable sink: each table renders as a
// title line and aligned columns (dimensions left-aligned, metrics
// right-aligned), with footnotes after the rows — the same shape the
// experiments historically printed by hand.
func NewText(w io.Writer) Sink { return &textSink{w: w} }

func (s *textSink) Table(t *Table) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if s.wrote {
		if _, err := fmt.Fprintln(s.w); err != nil {
			return err
		}
	}
	s.wrote = true
	if t.Title != "" {
		if _, err := fmt.Fprintln(s.w, t.Title); err != nil {
			return err
		}
	}
	// Render every cell first, then size each column to its widest cell.
	nd, nm := len(t.Schema.Dims), len(t.Schema.Metrics)
	ncol := nd + nm
	cells := make([][]string, 0, len(t.Rows)+1)
	header := make([]string, ncol)
	for i, d := range t.Schema.Dims {
		header[i] = d.Name
	}
	for i, m := range t.Schema.Metrics {
		header[nd+i] = m.Name
	}
	cells = append(cells, header)
	for _, r := range t.Rows {
		row := make([]string, ncol)
		copy(row, r.Dims)
		for i, m := range t.Schema.Metrics {
			row[nd+i] = formatMetric(m, r.Metrics[i])
		}
		cells = append(cells, row)
	}
	width := make([]int, ncol)
	for _, row := range cells {
		for i, c := range row {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for _, row := range cells {
		b.Reset()
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < nd { // dimensions left-aligned, metrics right-aligned
				b.WriteString(c)
				b.WriteString(strings.Repeat(" ", width[i]-len(c)))
			} else {
				b.WriteString(strings.Repeat(" ", width[i]-len(c)))
				b.WriteString(c)
			}
		}
		if _, err := fmt.Fprintln(s.w, strings.TrimRight(b.String(), " ")); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(s.w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

func (s *textSink) Close(Meta) error { return nil }

// ----------------------------------------------------------------- csv

type csvSink struct {
	w     io.Writer
	wrote bool
}

// NewCSV returns the CSV sink: per table, a `# experiment=...` comment
// line, a header row (dimension names then metric names), and the data
// rows; tables are separated by a blank line and run metadata trails
// as comment lines. A single-experiment run therefore yields one clean
// CSV block.
func NewCSV(w io.Writer) Sink { return &csvSink{w: w} }

func (s *csvSink) Table(t *Table) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if s.wrote {
		if _, err := fmt.Fprintln(s.w); err != nil {
			return err
		}
	}
	s.wrote = true
	if _, err := fmt.Fprintf(s.w, "# experiment=%s title=%q\n", t.Experiment, t.Title); err != nil {
		return err
	}
	cw := csv.NewWriter(s.w)
	nd := len(t.Schema.Dims)
	header := make([]string, nd+len(t.Schema.Metrics))
	for i, d := range t.Schema.Dims {
		header[i] = d.Name
	}
	for i, m := range t.Schema.Metrics {
		header[nd+i] = m.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for _, r := range t.Rows {
		copy(rec, r.Dims)
		for i, m := range t.Schema.Metrics {
			rec[nd+i] = formatMetric(m, r.Metrics[i])
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(s.w, "# note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

func (s *csvSink) Close(meta Meta) error {
	if meta.Tool == "" {
		return nil
	}
	if _, err := fmt.Fprintf(s.w, "\n# meta: tool=%s version=%s go=%s os=%s arch=%s cpus=%d\n",
		meta.Tool, meta.Version, meta.GoVersion, meta.OS, meta.Arch, meta.CPUs); err != nil {
		return err
	}
	// Options and dataset checksums carry the comparability contract
	// (same knobs, same data); keys are sorted so output is stable.
	for _, k := range sortedKeys(meta.Options) {
		if _, err := fmt.Fprintf(s.w, "# meta: option %s=%v\n", k, meta.Options[k]); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(meta.Datasets) {
		if _, err := fmt.Fprintf(s.w, "# meta: dataset %s checksum=%d\n", k, meta.Datasets[k]); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ---------------------------------------------------------------- json

type jsonSink struct {
	w      io.Writer
	tables []Table
}

// NewJSON returns the JSON sink: the run buffers into a single
// Document — {"meta": ..., "tables": [...]} — written at Close, when
// the metadata is complete. Output is pure data: nothing else may be
// written to the same stream.
func NewJSON(w io.Writer) Sink { return &jsonSink{w: w} }

func (s *jsonSink) Table(t *Table) error {
	if err := t.Validate(); err != nil {
		return err
	}
	s.tables = append(s.tables, *t)
	return nil
}

func (s *jsonSink) Close(meta Meta) error {
	if s.tables == nil {
		s.tables = []Table{}
	}
	enc := json.NewEncoder(s.w)
	enc.SetIndent("", "  ")
	return enc.Encode(Document{Meta: meta, Tables: s.tables})
}

// --------------------------------------------------------------- jsonl

// line is one JSONL record: exactly one of Table or Meta is set, so a
// consumer can stream-dispatch on which field is present.
type line struct {
	Table *Table `json:"table,omitempty"`
	Meta  *Meta  `json:"meta,omitempty"`
}

type jsonlSink struct {
	enc *json.Encoder
}

// NewJSONL returns the streaming JSON-lines sink: one {"table": ...}
// record per table as it arrives, then a final {"meta": ...} record.
// Suited to appending a run trajectory file record by record.
func NewJSONL(w io.Writer) Sink { return &jsonlSink{enc: json.NewEncoder(w)} }

func (s *jsonlSink) Table(t *Table) error {
	if err := t.Validate(); err != nil {
		return err
	}
	return s.enc.Encode(line{Table: t})
}

func (s *jsonlSink) Close(meta Meta) error {
	return s.enc.Encode(line{Meta: &meta})
}
