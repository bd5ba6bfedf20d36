package main

import (
	"time"

	"repro/internal/net"
	"repro/internal/persist"
)

// Counters the layers keep anyway are read at the edges of the untraced
// windows, through the store's accessors, the shared obs.Registry and
// Server.Stats; reading them costs the hot path nothing. The metrics
// below are their deltas over the windows.

// storeCounters is one reading of a store's and the persistence
// layer's counters.
type storeCounters struct {
	at              time.Time
	flushes, merges uint64
	compact         time.Duration
	probes, multi   float64 // run probes, and the reads that touched more than one run
	io              persist.Counters
}

func readStoreCounters(n *node) storeCounters {
	probes, _ := n.reg.Value("sosd_store_run_probes_total")
	multi, _ := n.reg.Value("sosd_store_multirun_ops_total")
	return storeCounters{
		at:      time.Now(),
		flushes: n.st.Flushes(),
		merges:  n.st.MinorMerges() + n.st.MajorMerges(),
		compact: n.st.CompactTime(),
		probes:  probes, multi: multi,
		io: persist.CountersNow(),
	}
}

// storeWatch reads a store's counters at the first and the last edge of
// a pass and tracks the largest run count seen at any edge.
type storeWatch struct {
	n           *node
	first, last storeCounters
	runsMax     int
}

func (w *storeWatch) edge(k, lastEdge int) {
	w.runsMax = max(w.runsMax, w.n.st.MaxRunCount())
	switch k {
	case 1:
		w.first = readStoreCounters(w.n)
	case lastEdge:
		w.last = readStoreCounters(w.n)
	}
}

// report stores the background and storage metrics of the windows. puts
// is the number of writes the workers made in them; a read-only
// workload reports per-put ratios against one put, so that any counter
// that moved shows.
func (w *storeWatch) report(m metrics, puts int64) {
	a, b := w.first, w.last
	per := float64(max(puts, 1))
	wall := b.at.Sub(a.at)
	m.set("serve.flushes_per_kput", float64(b.flushes-a.flushes)/per*1e3, "1/kput")
	m.set("serve.merges_per_kput", float64(b.merges-a.merges)/per*1e3, "1/kput")
	m.set("serve.compact_busy_frac", float64(b.compact-a.compact)/float64(wall), "ratio")
	amp := 1.0
	if b.multi > a.multi {
		amp = (b.probes - a.probes) / (b.multi - a.multi)
	}
	m.set("serve.read_amp", amp, "ratio")
	m.set("serve.runs_max", float64(w.runsMax), "count")
	wal := float64(b.io.WALBytes - a.io.WALBytes)
	snap := float64(b.io.SnapshotBytes - a.io.SnapshotBytes)
	m.set("persist.wal_bytes_per_put", wal/per, "B")
	m.set("persist.snapshot_bytes_per_put", snap/per, "B")
	m.set("persist.fsyncs_per_kput", float64(b.io.Fsyncs-a.io.Fsyncs)/per*1e3, "1/kput")
	if puts > 0 {
		m.set("write_amp", (wal+snap)/(16*float64(puts)), "ratio")
	}
}

// ratio is num/den, and 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// wireCounters is one reading of the servers' counters, summed over the
// servers of the stack.
type wireCounters struct {
	stats             *net.Stats
	idle, timer, full float64 // coalescer rounds by what flushed them
	mallocs           uint64
}

func readWireCounters(nodes []*node) wireCounters {
	c := wireCounters{stats: &net.Stats{}, mallocs: mallocs()}
	for _, n := range nodes {
		c.stats.Merge(n.srv.Stats())
		for name, into := range map[string]*float64{
			"sosd_net_flush_idle_total": &c.idle, "sosd_net_flush_timer_total": &c.timer, "sosd_net_flush_full_total": &c.full,
		} {
			v, _ := n.reg.Value(name)
			*into += v
		}
	}
	return c
}

type wireWatch struct {
	nodes       []*node
	first, last wireCounters
}

func (w *wireWatch) edge(k, lastEdge int) {
	switch k {
	case 1:
		w.first = readWireCounters(w.nodes)
	case lastEdge:
		w.last = readWireCounters(w.nodes)
	}
}

// report stores the wire counters of the windows. ops is the number of
// operations the clients completed in them and clientP50 their median
// latency in µs. The server's service-time histogram cannot be
// subtracted, so its median covers the warm-up too.
func (w *wireWatch) report(m metrics, ops int64, clientP50 float64) {
	a, b := w.first, w.last
	rounds := (b.idle - a.idle) + (b.timer - a.timer) + (b.full - a.full)
	shed := float64(b.stats.Shed - a.stats.Shed)
	m.set("net.coalesce_batch", ratio(float64(b.stats.BatchedKeys-a.stats.BatchedKeys), float64(b.stats.Batches-a.stats.Batches)), "keys")
	m.set("net.flush_idle_frac", ratio(b.idle-a.idle, rounds), "ratio")
	m.set("net.flush_timer_frac", ratio(b.timer-a.timer, rounds), "ratio")
	m.set("net.shed_frac", ratio(shed, shed+float64(b.stats.Accepted-a.stats.Accepted)), "ratio")
	m.set("net.queue_depth_max", float64(b.stats.MaxQueueDepth), "count")
	server := float64(b.stats.Latency.Quantile(0.5)) / 1e3
	m.set("net.server_p50_us", server, "us")
	m.set("net.transport_p50_us", clientP50-server, "us")
	m.set("net.allocs_per_op", ratio(float64(b.mallocs-a.mallocs), float64(ops)), "allocs/op")
}

// tracerPhaseMetrics maps the phases of the program's tracer to the
// per-layer metrics that report their medians.
var tracerPhaseMetrics = []struct {
	name, phase, unit string
	div               float64
}{
	{"serve.route_p50_ns", "shard_route", "ns", 1},
	{"serve.probe_p50_ns", "run_probe", "ns", 1},
	{"serve.merge_p50_ns", "merge", "ns", 1},
	{"net.queue_wait_p50_us", "queue_wait", "us", 1e3},
	{"net.coalesce_wait_p50_us", "coalesce_wait", "us", 1e3},
}

// tracerPhases stores the phase medians of the program's own tracer,
// which only the traced pass attaches. With several nodes, the first
// one that sampled a phase reports it.
func tracerPhases(m metrics, nodes ...*node) {
	for _, p := range tracerPhaseMetrics {
		for _, n := range nodes {
			if n.tracer == nil {
				continue
			}
			v, ok := n.reg.Value(`sosd_trace_phase_ns{phase="` + p.phase + `"}_p50`)
			if ok && v > 0 {
				m.set(p.name, v/p.div, p.unit)
				break
			}
		}
	}
}
