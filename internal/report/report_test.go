package report

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleTables builds a deterministic pair of tables exercising every
// schema feature: float and int metrics, precision, notes, and a
// dimensions-only table.
func sampleTables() []*Table {
	sweep := New("fig7", "Figure 7: performance/size tradeoffs (warm cache, tight loop)").
		Dims("data", "index", "config").
		Float("size(MB)", "MB", 4).
		Float("ns/lookup", "ns", 1).
		Int("probes", "")
	sweep.Row([]string{"amzn", "BS", ""}, 0, 812.5, 18)
	sweep.Row([]string{"amzn", "RMI", "branch=256"}, 1.2345, 96.25, 3)
	sweep.Row([]string{"osm", "PGM", "eps=16"}, 0.0375, 240, 7)
	sweep.Notef("BS is the size-0 binary-search baseline")

	caps := New("table1", "Table 1: search techniques evaluated").
		Dims("Method", "Updates", "Ordered", "Type")
	caps.Row([]string{"PGM", "Yes", "Yes", "Learned"})
	caps.Row([]string{"BTree", "Yes", "Yes", "Tree"})
	return []*Table{sweep, caps}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestTextSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	s := NewText(&buf)
	for _, tb := range sampleTables() {
		if err := s.Table(tb); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(Meta{}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sample.txt.golden", buf.Bytes())
}

func TestCSVSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	s := NewCSV(&buf)
	for _, tb := range sampleTables() {
		if err := s.Table(tb); err != nil {
			t.Fatal(err)
		}
	}
	meta := Meta{Tool: "sosd", Version: "test", GoVersion: "go1.24", OS: "linux", Arch: "amd64", CPUs: 8,
		Options:  map[string]any{"seed": uint64(0), "n": 20000},
		Datasets: map[string]uint64{"osm/n=20000/seed=0": 7, "amzn/n=20000/seed=0": 9}}
	if err := s.Close(meta); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sample.csv.golden", buf.Bytes())
}

func TestJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSON(&buf)
	tables := sampleTables()
	for _, tb := range tables {
		if err := s.Table(tb); err != nil {
			t.Fatal(err)
		}
	}
	meta := Meta{Tool: "sosd", Version: "abc123", Datasets: map[string]uint64{"amzn/n=10/seed=1": 42}}
	if err := s.Close(meta); err != nil {
		t.Fatal(err)
	}
	doc, err := DecodeDocument(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Meta.Tool != "sosd" || doc.Meta.Version != "abc123" || doc.Meta.Datasets["amzn/n=10/seed=1"] != 42 {
		t.Errorf("meta not preserved: %+v", doc.Meta)
	}
	if len(doc.Tables) != len(tables) {
		t.Fatalf("got %d tables, want %d", len(doc.Tables), len(tables))
	}
	for i, tb := range tables {
		if !reflect.DeepEqual(doc.Tables[i], *tb) {
			t.Errorf("table %d did not round-trip:\ngot  %+v\nwant %+v", i, doc.Tables[i], *tb)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	tables := sampleTables()
	for _, tb := range tables {
		if err := s.Table(tb); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(Meta{Tool: "sosd"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(tables)+1 {
		t.Fatalf("got %d lines, want %d", len(lines), len(tables)+1)
	}
	for i, tb := range tables {
		var l line
		if err := json.Unmarshal([]byte(lines[i]), &l); err != nil {
			t.Fatal(err)
		}
		if l.Table == nil || l.Meta != nil {
			t.Fatalf("line %d is not a table record", i)
		}
		if !reflect.DeepEqual(*l.Table, *tb) {
			t.Errorf("table %d did not round-trip", i)
		}
	}
	var last line
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Meta == nil || last.Meta.Tool != "sosd" {
		t.Errorf("final line is not the meta record: %s", lines[len(lines)-1])
	}
}

func TestRowArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch did not panic")
		}
	}()
	New("x", "").Dims("a").Float("m", "", 1).Row([]string{"v"}) // missing metric
}

func TestValidate(t *testing.T) {
	good := New("x", "").Dims("a").Int("n", "")
	good.Row([]string{"v"}, 1)
	if err := good.Validate(); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
	bad := &Table{Experiment: "x", Schema: schema{Dims: []dim{{Name: "a"}}},
		Rows: []Row{{Dims: []string{"v", "extra"}}}}
	if err := bad.Validate(); err == nil {
		t.Error("arity-broken table accepted")
	}
	unnamed := &Table{}
	if err := unnamed.Validate(); err == nil {
		t.Error("unnamed table accepted")
	}
	badKind := &Table{Experiment: "x", Schema: schema{Metrics: []metric{{Name: "m", Kind: "bogus"}}}}
	if err := badKind.Validate(); err == nil {
		t.Error("unknown metric kind accepted")
	}
}

func TestDecodeDocumentRejectsInvalid(t *testing.T) {
	in := `{"meta":{"tool":"sosd","version":"v"},"tables":[{"experiment":"","schema":{},"rows":[]}]}`
	if _, err := DecodeDocument(strings.NewReader(in)); err == nil {
		t.Error("document with unnamed table accepted")
	}
	if _, err := DecodeDocument(strings.NewReader("{nope")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestBuildVersion(t *testing.T) {
	if buildVersion() == "" {
		t.Error("empty build version")
	}
}

func TestNewMeta(t *testing.T) {
	m := NewMeta("sosd")
	if m.Tool != "sosd" || m.CPUs < 1 || m.GoVersion == "" || m.Started.IsZero() {
		t.Errorf("incomplete meta: %+v", m)
	}
}
