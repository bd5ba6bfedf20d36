package main

import (
	"fmt"
	"time"

	"repro/internal/net"
)

// routedBatch is the only workload where replication runs: a primary
// and one follower behind the router, two workers each running a step
// stream in which 7 of 8 steps are one TryGetBatch of 256 zipfian keys
// (scattered by key range over both nodes and gathered) and every 8th
// is 16 TryPuts (to the primary, through the write hook into the stream
// and the follower's apply and WAL). It is also the second use of the
// wire: large explicit-batch frames and writes instead of coalesced
// point reads.
type routedBatch struct {
	onStack
	in   readInputs
	puts []*mixedStream
}

const (
	putEvery    = 8  // every 8th step writes
	putsPerStep = 16 // and makes this many Puts
)

func (w *routedBatch) generate(c *config) error {
	if err := w.in.generate(c, "routed-batch", true); err != nil {
		return err
	}
	// A write-only MixedOps stream: Puts alternating fresh inserts and
	// zipfian updates.
	perWorker := c.scale(int(20_000*c.seconds), 4_000)
	w.puts = mixedStreams(w.in.ks, loadWorkers, perWorker, 0, c.seed+1)
	c.logf("routed-batch: puts=%dx%d checksums=%016x,%016x", loadWorkers, perWorker, w.puts[0].checksum(), w.puts[1].checksum())
	if c.corrupt {
		w.in.pool.want[0]++
	}
	return nil
}

func (w *routedBatch) setUp(c *config, dir string, traced bool) (err error) {
	w.s, err = buildRouted(w.in.ks, dir, traced)
	return err
}

func (w *routedBatch) timing(m metrics) {
	w.onStack.timing(m)
	m.set("repl.bootstrap_s", w.s.timing["bootstrap"], "s")
}

func (w *routedBatch) measure(c *config, p plan, rec *recorder, m metrics) (*pass, error) {
	s, pool, router := w.s, w.in.pool, w.s.router
	m.set("index_bytes_per_key", float64(s.st.SizeBytes())/float64(c.n), "B")
	share := len(pool.sums) / loadWorkers
	lanes := make([]lane, loadWorkers)
	outs := make([][]uint64, loadWorkers)
	for i := range outs {
		outs[i] = make([]uint64, readBatch)
	}
	nodes := []*node{&s.node, &s.folNode}
	store := &storeWatch{n: &s.node}
	wire := &wireWatch{nodes: nodes}
	var lagMax uint64
	var routedFirst, routedLast routerReading
	ps := drive(p, driver{workers: loadWorkers, rec: rec, name: "routed-batch",
		onEdge: func(k int) {
			store.edge(k, p.windows+1)
			wire.edge(k, p.windows+1)
			for _, lag := range router.Lag() {
				lagMax = max(lagMax, lag)
			}
			switch k {
			case 1:
				routedFirst = readRouter(s)
			case p.windows + 1:
				routedLast = readRouter(s)
			}
		}},
		func(wk int, sl *slot) {
			ln := &lanes[wk]
			step := ln.next
			ln.next++
			if step%putEvery == putEvery-1 {
				ms := w.puts[wk]
				for j := 0; j < putsPerStep; j++ {
					key := ms.keys[int(ln.puts)%len(ms.keys)]
					t0 := time.Now()
					err := router.TryPut(key, writeTag(key, wk, ln.puts))
					sl.write(t0, "repl.TryPut", ln.puts)
					ln.puts++
					sl.attempted++
					if err != nil {
						sl.failed++
						continue
					}
					sl.ops++
				}
				return
			}
			b := wk*share + (step-step/putEvery)%share
			keys, _ := pool.block(b, readBatch)
			want, out := pool.wants(b, readBatch), outs[wk]
			t0 := time.Now()
			found, err := router.TryGetBatch(keys, out)
			sl.read(t0, "repl.TryGetBatch", int64(b), 1)
			sl.attempted += readBatch
			if err != nil || found != readBatch {
				c.complain("routed-batch: batch %d found %d of %d keys, error %v", b, found, readBatch, err)
				sl.failed++
				return
			}
			for i, v := range out {
				if v != want[i] && !validRead(keys[i], v, want[i]) {
					c.complain("routed-batch: key %d read %x, loaded with %x", keys[i], v, want[i])
					sl.failed++
					return
				}
			}
			sl.ops += readBatch
		})
	m.set("heap_mb", heapMB(), "MB")
	store.report(m, ps.writes())
	clientP50 := median(ps.each(func(w *window) float64 { return float64(w.reads.Quantile(0.5)) / 1e3 }))
	wire.report(m, ps.ops(), clientP50)
	tracerPhases(m, nodes...)

	// Quiesced: the follower must catch up with everything acknowledged,
	// and agree with the primary on every written key.
	t0 := time.Now()
	if err := s.settle(); err != nil {
		return nil, err
	}
	m.set("repl.catchup_ms", float64(time.Since(t0).Nanoseconds())/1e6, "ms")
	m.set("repl.lag_ops_max", float64(lagMax), "ops")
	routedLast.report(m, routedFirst)

	last := lastWrites(w.puts, []int64{lanes[0].puts, lanes[1].puts})
	ps.otherAttempted += int64(2 * len(last))
	ps.otherFailed += missingWrites(c, "primary", last, s.st.Get)
	ps.otherFailed += missingWrites(c, "follower", last, s.fol.Store().Get)
	if fs := s.fol.Stats(); fs.Resyncs > 1 {
		return nil, fmt.Errorf("follower resynced %d times during the run", fs.Resyncs-1)
	}
	return ps, nil
}

// settle waits until the follower holds every write the primary
// acknowledged. WaitCaughtUp alone can return a moment early: the
// follower advances its applied vector before the batch is in its store,
// so the count of applied ops is awaited as well.
func (s *stack) settle() error {
	if err := s.pri.WaitAcked(replTimeout); err != nil {
		return err
	}
	if err := s.fol.WaitCaughtUp(s.log.Seqs(), replTimeout); err != nil {
		return err
	}
	deadline := time.Now().Add(replTimeout)
	for s.fol.Stats().AppliedOps < s.pri.Stats().StreamedOps {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower applied %d of %d streamed ops", s.fol.Stats().AppliedOps, s.pri.Stats().StreamedOps)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// routerReading is one reading of the counters that say who served the
// routed reads.
type routerReading struct {
	served, retries           uint64
	primaryReads, followReads uint64 // requests each node's server accepted
}

func readRouter(s *stack) routerReading {
	rs := s.router.Stats()
	return routerReading{
		served: rs.Served, retries: rs.Retries,
		primaryReads: s.srv.Stats().Accepted, followReads: s.folNode.srv.Stats().Accepted,
	}
}

func (b routerReading) report(m metrics, a routerReading) {
	m.set("repl.fallback_frac", ratio(float64(b.retries-a.retries), float64(b.served-a.served)), "ratio")
	follower := float64(b.followReads - a.followReads)
	m.set("repl.served_replica_frac", ratio(follower, follower+float64(b.primaryReads-a.primaryReads)), "ratio")
}

func (w *routedBatch) ladder(c *config, rec *recorder, m metrics) error {
	// The boundary below the router: one connection straight to the
	// primary's serving port.
	direct, err := net.DialPool(w.s.srv.Addr().String(), 1)
	if err != nil {
		return err
	}
	defer direct.Close()
	l := &ladder{c: c, rec: rec, m: m}
	u := storeUnder(w.s.st)
	u.wire, u.router = direct, w.s.router
	if err := l.reads(u, w.in.ladderKeys()); err != nil {
		return err
	}
	return l.wirePut(direct, w.puts[0].keys)
}
