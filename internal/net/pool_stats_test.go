package net

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
)

// TestPoolStatsSingleServer: a pool with many connections reports its
// server's stats exactly once.
func TestPoolStatsSingleServer(t *testing.T) {
	srv, _, keys, _ := newServed(t, 2000, Config{})
	p, err := DialPool(srv.Addr().String(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const ops = 30
	for i := 0; i < ops; i++ {
		if _, _, err := p.TryGet(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := p.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got.Accepted != ops {
		t.Fatalf("single-server pool Accepted = %d, want %d (double-counted?)", got.Accepted, ops)
	}
}

// TestStatsMerge pins the Merge arithmetic itself, including the
// name-summed vars and the max-of-max queue high-water.
func TestStatsMerge(t *testing.T) {
	ha, hb := &stats.Histogram{}, &stats.Histogram{}
	ha.Record(100)
	hb.Record(300)
	a := &Stats{
		conns: 1, Accepted: 10, Shed: 2, queueDepth: 3, MaxQueueDepth: 5,
		Latency: ha,
		Vars:    []obs.Var{{Name: "alpha", Value: 1}, {Name: "beta", Value: 2}},
	}
	b := &Stats{
		conns: 2, Accepted: 20, Shed: 1, queueDepth: 1, MaxQueueDepth: 9,
		Latency: hb,
		Vars:    []obs.Var{{Name: "beta", Value: 5}, {Name: "gamma", Value: 7}},
	}
	a.Merge(b)
	if a.conns != 3 || a.Accepted != 30 || a.Shed != 3 || a.queueDepth != 4 {
		t.Fatalf("summed counters wrong: %+v", a)
	}
	if a.MaxQueueDepth != 9 {
		t.Fatalf("MaxQueueDepth = %d, want max 9", a.MaxQueueDepth)
	}
	if a.Latency.Count() != 2 || a.Latency.Max() != 300 {
		t.Fatalf("latency merge wrong: %v", a.Latency)
	}
	want := []obs.Var{{Name: "alpha", Value: 1}, {Name: "beta", Value: 7}, {Name: "gamma", Value: 7}}
	if len(a.Vars) != len(want) {
		t.Fatalf("merged vars %v, want %v", a.Vars, want)
	}
	for i := range want {
		if a.Vars[i] != want[i] {
			t.Fatalf("merged vars[%d] = %v, want %v", i, a.Vars[i], want[i])
		}
	}
}
