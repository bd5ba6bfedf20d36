package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestAdminEndpoints(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("hits_total", func() float64 { return 12 })
	r.GaugeFunc("temp", func() float64 { return 3.5 })
	j := NewJournal(8)
	j.Append(Event{Shard: 1, Kind: "flush", Keys: 100})
	j.Append(Event{Shard: 0, Kind: "major", Keys: 5000})

	srv, err := ListenAdmin("127.0.0.1:0", r, j)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr().String()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	if !strings.Contains(metrics, "hits_total 12\n") || !strings.Contains(metrics, "temp 3.5\n") {
		t.Fatalf("/metrics missing series:\n%s", metrics)
	}

	varsBody, ct := get("/vars")
	if !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/vars content type %q", ct)
	}
	var vars []Var
	if err := json.Unmarshal([]byte(varsBody), &vars); err != nil {
		t.Fatalf("/vars is not JSON: %v", err)
	}
	if len(vars) != 2 {
		t.Fatalf("/vars has %d entries, want 2", len(vars))
	}

	eventsBody, _ := get("/events")
	var events struct {
		Total   uint64  `json:"total"`
		Evicted uint64  `json:"evicted"`
		Events  []Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(eventsBody), &events); err != nil {
		t.Fatalf("/events is not JSON: %v", err)
	}
	if events.Total != 2 || len(events.Events) != 2 || events.Events[1].Kind != "major" {
		t.Fatalf("/events wrong: %+v", events)
	}

	// pprof index must be live even with nil registry and journal.
	if body, _ := get("/debug/pprof/"); !strings.Contains(body, "profile") {
		t.Fatal("/debug/pprof/ index missing profiles")
	}

	// Unknown paths 404 rather than falling into the index page.
	resp, err := http.Get(base + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope: status %d, want 404", resp.StatusCode)
	}
}

func TestAdminNilRegistry(t *testing.T) {
	srv, err := ListenAdmin("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/metrics", "/vars", "/events"} {
		resp, err := http.Get("http://" + srv.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s with nil registry: status %d", path, resp.StatusCode)
		}
	}
}
