package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// readInputs is what the read-only store workloads share: the amzn key
// set and one zipfian lookup stream, of which each worker takes a
// contiguous share (so all workers see the same hot keys).
type readInputs struct {
	ks   *keySet
	pool *readPool
}

func (in *readInputs) generate(c *config, name string, perKey bool) error {
	ks, err := genKeySet(dataset.Amzn, c.n)
	if err != nil {
		return err
	}
	in.ks = ks
	in.pool = zipfPool(ks, identity(c.n), c.scale(1<<21, 1<<15), c.seed, perKey)
	c.logf("%s: %s keys=%d (%d MB of keys and payloads) checksum=%016x lookups=%d checksum=%016x",
		name, ks.name, c.n, c.n*16>>20, ks.checksum, len(in.pool.keys), in.pool.checksum())
	return nil
}

// ladderKeys is the prefix of the stream the ladders drive.
func (in *readInputs) ladderKeys() []core.Key { return in.pool.keys[:min(len(in.pool.keys), 1<<17)] }

// storeRead is the compacted in-process store under batched zipfian
// reads: routing, the worker pool and the table batch path do the work,
// the hot keys fit the cache, and the wire, persistence and replication
// are idle.
type storeRead struct {
	onStack
	in readInputs
}

func (w *storeRead) generate(c *config) error {
	if err := w.in.generate(c, "store-read", false); err != nil {
		return err
	}
	if c.corrupt {
		w.in.pool.sums[0]++
	}
	return nil
}

func (w *storeRead) setUp(c *config, dir string, traced bool) (err error) {
	w.s, err = buildStore(w.in.ks, traced, nil)
	return err
}

func (w *storeRead) measure(c *config, p plan, rec *recorder, m metrics) (*pass, error) {
	st, pool := w.s.st, w.in.pool
	m.set("index_bytes_per_key", float64(st.SizeBytes())/float64(c.n), "B")
	share := len(pool.sums) / loadWorkers
	lanes := make([]lane, loadWorkers)
	outs := make([][]uint64, loadWorkers)
	for i := range outs {
		outs[i] = make([]uint64, readBatch)
	}
	watch := &storeWatch{n: &w.s.node}
	ps := drive(p, driver{workers: loadWorkers, rec: rec, name: "store-read",
		onEdge: func(k int) { watch.edge(k, p.windows+1) }},
		func(wk int, s *slot) {
			b := wk*share + lanes[wk].next%share
			lanes[wk].next++
			keys, want := pool.block(b, readBatch)
			out := outs[wk]
			t0 := time.Now()
			found := st.GetBatch(keys, out)
			s.read(t0, "serve.GetBatch", int64(b), 1)
			var sum uint64
			for _, v := range out {
				sum += v
			}
			s.attempted += readBatch
			if found != readBatch || sum != want {
				c.complain("store-read: batch %d found %d of %d keys, payloads sum to %x, want %x", b, found, readBatch, sum, want)
				s.failed++
				return
			}
			s.ops += readBatch
		})
	m.set("heap_mb", heapMB(), "MB")
	watch.report(m, 0)
	tracerPhases(m, &w.s.node)
	return ps, nil
}

func (w *storeRead) ladder(c *config, rec *recorder, m metrics) error {
	l := &ladder{c: c, rec: rec, m: m}
	return l.reads(storeUnder(w.s.st), w.in.ladderKeys())
}

// wirePoint is the store-read stack behind a server with the default
// net.Config and a pool of two connections, with 16 callers per
// connection each waiting for the reply to one point Get: the frame
// codec, the coalescer, per-response writes and syscalls do almost all
// the work. 32 in flight is far below MaxPending, so nothing is shed.
type wirePoint struct {
	onStack
	in readInputs
}

const callersPerConn = 16

func (w *wirePoint) generate(c *config) error {
	if err := w.in.generate(c, "wire-point", true); err != nil {
		return err
	}
	if c.corrupt {
		w.in.pool.want[0]++
	}
	return nil
}

func (w *wirePoint) setUp(c *config, dir string, traced bool) (err error) {
	w.s, err = buildWire(w.in.ks, traced)
	return err
}

func (w *wirePoint) measure(c *config, p plan, rec *recorder, m metrics) (*pass, error) {
	pool, client := w.in.pool, w.s.pool
	m.set("index_bytes_per_key", float64(w.s.st.SizeBytes())/float64(c.n), "B")
	callers := connections * callersPerConn
	share := len(pool.keys) / callers
	lanes := make([]lane, callers)
	store := &storeWatch{n: &w.s.node}
	wire := &wireWatch{nodes: []*node{&w.s.node}}
	ps := drive(p, driver{workers: callers, rec: rec, name: "wire-point",
		onEdge: func(k int) { store.edge(k, p.windows+1); wire.edge(k, p.windows+1) }},
		func(wk int, s *slot) {
			i := wk*share + lanes[wk].next%share
			lanes[wk].next++
			t0 := time.Now()
			v, ok, err := client.TryGet(pool.keys[i])
			s.read(t0, "net.TryGet", int64(i), 1)
			s.attempted++
			if err != nil || !ok || v != pool.want[i] {
				c.complain("wire-point: key %d read %x (present %v, error %v), want %x", pool.keys[i], v, ok, err, pool.want[i])
				s.failed++
				return
			}
			s.ops++
		})
	m.set("heap_mb", heapMB(), "MB")
	store.report(m, 0)
	clientP50 := median(ps.each(func(w *window) float64 { return float64(w.reads.Quantile(0.5)) / 1e3 }))
	wire.report(m, ps.ops(), clientP50)
	tracerPhases(m, &w.s.node)
	return ps, nil
}

func (w *wirePoint) ladder(c *config, rec *recorder, m metrics) error {
	l := &ladder{c: c, rec: rec, m: m}
	u := storeUnder(w.s.st)
	u.wire = w.s.pool
	if err := l.reads(u, w.in.ladderKeys()); err != nil {
		return err
	}
	return l.wirePut(w.s.pool, dataset.InsertKeys(w.in.ks.keys, l.remote().blocks*l.remote().size, c.seed))
}
