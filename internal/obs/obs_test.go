package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
)

// counter registers a CounterFunc over a fresh atomic and returns the
// atomic: the registration a caller with its own counter makes.
func counter(r *Registry, name string, labels ...Label) *atomic.Uint64 {
	c := new(atomic.Uint64)
	r.CounterFunc(name, func() float64 { return float64(c.Load()) }, labels...)
	return c
}

// histogram attaches a fresh stats.Histogram and returns it.
func histogram(r *Registry, name string, labels ...Label) *stats.Histogram {
	h := new(stats.Histogram)
	r.AttachHistogram(name, h, labels...)
	return h
}

func TestNilSafety(t *testing.T) {
	// A nil registry registers nothing; every method must no-op.
	var r *Registry
	r.CounterFunc("y_total", func() float64 { return 1 })
	r.GaugeFunc("y", func() float64 { return 1 })
	r.AttachHistogram("z_ns", new(stats.Histogram))
	if vars := r.Vars(); vars != nil {
		t.Fatalf("nil registry has vars: %v", vars)
	}
	tr := NewTracer(r, 1)
	if tr != nil {
		t.Fatal("tracer over nil registry must be nil")
	}
	if sp := tr.Sample(); sp != nil {
		t.Fatal("nil tracer sampled")
	}
	var sp *Span
	sp.Mark(PhaseQueueWait) // must not panic
	var j *Journal
	j.Append(Event{Kind: "flush"})
	if j.Total() != 0 || j.Events() != nil || j.Count("flush") != 0 {
		t.Fatal("nil journal retained an event")
	}
}

func TestRegistryVarsAndValue(t *testing.T) {
	r := NewRegistry()
	c := counter(r, "a_total")
	for range 7 {
		c.Add(1)
	}
	r.GaugeFunc("b", func() float64 { return -2 }, Label{"shard", "0"})
	r.GaugeFunc("c", func() float64 { return 1.5 })
	r.CounterFunc("d_total", func() float64 { return 9 })
	h := histogram(r, "e_ns")
	h.Record(100)
	h.Record(300)

	want := map[string]float64{
		"a_total":      7,
		`b{shard="0"}`: -2,
		"c":            1.5,
		"d_total":      9,
		"e_ns_count":   2,
		"e_ns_sum":     400,
		"e_ns_max":     300,
	}
	for id, v := range want {
		got, ok := r.Value(id)
		if !ok {
			t.Fatalf("missing var %q", id)
		}
		if got != v {
			t.Fatalf("var %q = %v, want %v", id, got, v)
		}
	}
	vars := r.Vars()
	for i := 1; i < len(vars); i++ {
		if vars[i].Name <= vars[i-1].Name {
			t.Fatalf("vars not sorted: %q after %q", vars[i].Name, vars[i-1].Name)
		}
	}
	if _, ok := r.Value("nope"); ok {
		t.Fatal("Value found a series that was never registered")
	}
}

func TestRegistryPanicsOnBadRegistration(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	counter(r, "dup_total", Label{"shard", "1"})
	expectPanic("duplicate series", func() { counter(r, "dup_total", Label{"shard", "1"}) })
	expectPanic("type clash", func() { r.GaugeFunc("dup_total", func() float64 { return 0 }, Label{"shard", "2"}) })
	expectPanic("bad name", func() { counter(r, "has space") })
	expectPanic("bad label key", func() { counter(r, "ok_total", Label{"0bad", "v"}) })
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	get := counter(r, "req_total", Label{"kind", "get"})
	for range 3 {
		get.Add(1)
	}
	counter(r, "req_total", Label{"kind", "put"}).Add(1)
	r.GaugeFunc("depth", func() float64 { return 5 })
	h := histogram(r, "lat_ns")
	for i := int64(1); i <= 100; i++ {
		h.Record(i * 1000)
	}
	counter(r, "esc_total", Label{"v", "a\"b\\c\nd"}).Add(1)

	var b strings.Builder
	if err := r.writePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE req_total counter\n",
		"req_total{kind=\"get\"} 3\n",
		"req_total{kind=\"put\"} 1\n",
		"# TYPE depth gauge\n",
		"depth 5\n",
		"# TYPE lat_ns summary\n",
		"lat_ns{quantile=\"0.5\"}",
		"lat_ns_sum ",
		"lat_ns_count 100\n",
		`esc_total{v="a\"b\\c\nd"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per family, families contiguous.
	if strings.Count(out, "# TYPE req_total ") != 1 {
		t.Fatalf("req_total declared more than once:\n%s", out)
	}
}

func TestTracerSampling(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r, 4)
	sampled := 0
	for i := 0; i < 64; i++ {
		if sp := tr.Sample(); sp != nil {
			sampled++
			sp.Mark(PhaseShardRoute)
			sp.Mark(PhaseRunProbe)
			sp.Mark(PhaseMerge)
		}
	}
	if sampled != 16 {
		t.Fatalf("sampled %d of 64 at stride 4, want 16", sampled)
	}
	if v, _ := r.Value("sosd_trace_sampled_total"); v != 16 {
		t.Fatalf("sampled counter %v, want 16", v)
	}
	if v, _ := r.Value(`sosd_trace_phase_ns{phase="run_probe"}_count`); v != 16 {
		t.Fatalf("run_probe count %v, want 16", v)
	}
	if v, _ := r.Value(`sosd_trace_phase_ns{phase="merge"}_count`); v != 16 {
		t.Fatalf("merge count %v, want 16", v)
	}
	// Stride rounds up to a power of two.
	tr3 := NewTracer(NewRegistry(), 3)
	if tr3.mask != 3 {
		t.Fatalf("stride 3 rounded to mask %d, want 3 (every 4)", tr3.mask)
	}
}

func TestJournalRing(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		kind := "flush"
		if i%3 == 0 {
			kind = "minor"
		}
		j.Append(Event{Shard: i, Kind: kind})
	}
	evs := j.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	// Oldest-first, the most recent 4 appends (shards 6..9).
	for k, e := range evs {
		if e.Shard != 6+k {
			t.Fatalf("event %d has shard %d, want %d", k, e.Shard, 6+k)
		}
		if e.Seq != uint64(7+k) {
			t.Fatalf("event %d has seq %d, want %d", k, e.Seq, 7+k)
		}
		if e.Time.IsZero() {
			t.Fatal("journal did not stamp event time")
		}
	}
	if j.Total() != 10 || j.evicted() != 6 {
		t.Fatalf("total=%d evicted=%d, want 10/6", j.Total(), j.evicted())
	}
	// Kind counts survive eviction.
	if j.Count("minor") != 4 || j.Count("flush") != 6 {
		t.Fatalf("kind counts minor=%d flush=%d, want 4/6", j.Count("minor"), j.Count("flush"))
	}
}

// TestConcurrentScrape hammers a registry with recorders while scraping
// Vars and the Prometheus text concurrently — the registry's scrape
// path must never race (run under -race in CI) and counters must land
// exactly.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := counter(r, "ops_total")
	h := histogram(r, "lat_ns")
	r.GaugeFunc("depth", func() float64 { return float64(c.Load()) })
	const workers, perWorker = 4, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.Vars()
			var b strings.Builder
			_ = r.writePrometheus(&b)
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(1)
				h.Record(int64(i))
			}
		}()
	}
	// Wait for the recorders to land every sample, then stop the
	// scraper and join everything.
	for c.Load() != workers*perWorker {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if v, _ := r.Value("ops_total"); v != workers*perWorker {
		t.Fatalf("final counter %v, want %d", v, workers*perWorker)
	}
	if v, _ := r.Value("lat_ns_count"); v != workers*perWorker {
		t.Fatalf("final histogram count %v, want %d", v, workers*perWorker)
	}
	if v, _ := r.Value("depth"); v != workers*perWorker {
		t.Fatalf("final gauge %v, want %d", v, workers*perWorker)
	}
}
