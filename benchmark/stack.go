package main

import (
	"os"
	"path/filepath"
	"time"

	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/serve"
)

// Every machine-derived default of the stack is pinned here, so that a
// run on another host measures the same configuration.
const (
	storeShards  = 8
	storeWorkers = 2
	storeFamily  = "RMI"
	connections  = 2
	loadWorkers  = 2
	listenAddr   = "127.0.0.1:0"
	replTimeout  = 60 * time.Second
)

// traceEvery is the sampling stride of the program's own tracer in the
// traced pass; the untraced pass attaches none.
const traceEvery = 64

// node is one store with what observes and serves it.
type node struct {
	st     *serve.Store
	reg    *obs.Registry
	srv    *net.Server
	tracer *obs.Tracer
}

// stack is what a workload runs against; which fields are set depends
// on the workload. close releases it in reverse order of construction.
type stack struct {
	node                  // the in-process store, or the primary
	pool    *net.Pool     // wire-point
	log     *repl.Log     // routed-batch
	pri     *repl.Primary // routed-batch
	fol     *repl.Follower
	folNode node
	router  *repl.Router
	dir     string // the attached store's directory (store-mixed)

	timing  map[string]float64 // seconds spent in each part of set-up
	closers []func()
}

// onStack is the part of a workload that holds its stack.
type onStack struct{ s *stack }

func (o *onStack) tearDown() {
	if o.s != nil {
		o.s.close()
		o.s = nil
	}
}

// timing reports the set-up parts every store workload has.
func (o *onStack) timing(m metrics) { m.set("serve.build_s", o.s.timing["build"], "s") }

// Latencies are recorded in nanoseconds.
func (o *onStack) latencyUnitsPerUs() float64 { return 1e3 }

func newStack() *stack { return &stack{timing: map[string]float64{}} }

func (s *stack) onClose(f func()) { s.closers = append(s.closers, f) }

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// timed adds the duration of f to the named part of set-up.
func (s *stack) timed(part string, f func() error) error {
	t0 := time.Now()
	err := f()
	s.timing[part] += time.Since(t0).Seconds()
	return err
}

func storeConfig(traced bool) (serve.Config, *obs.Registry, *obs.Tracer) {
	reg := obs.NewRegistry()
	cfg := serve.Config{Shards: storeShards, Workers: storeWorkers, Family: storeFamily, Metrics: reg}
	if traced {
		cfg.Tracer = obs.NewTracer(reg, traceEvery)
	}
	return cfg, reg, cfg.Tracer
}

// buildStore builds the compacted in-process store of store-read.
func buildStore(ks *keySet, traced bool, hook *repl.Log) (*stack, error) {
	s := newStack()
	cfg, reg, tracer := storeConfig(traced)
	if hook != nil {
		cfg.WriteHook = hook.Hook()
	}
	err := s.timed("build", func() (err error) {
		s.st, err = serve.New(ks.keys, ks.payloads, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	s.reg, s.tracer = reg, tracer
	s.onClose(s.st.Close)
	return s, nil
}

// buildAttached builds the store, snapshots it into dir, closes it and
// reopens the snapshot: the attached store of store-mixed, whose writes
// reach the WAL before they are visible.
func buildAttached(ks *keySet, dir string, traced bool) (*stack, error) {
	s, err := buildStore(ks, false, nil)
	if err != nil {
		return nil, err
	}
	err = s.timed("snapshot", func() error { return s.st.Snapshot(dir) })
	s.close()
	if err != nil {
		return nil, err
	}
	if err := s.openAttached(dir, traced, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// openAttached opens the snapshot in dir as the stack's store. mod
// adjusts the configuration it is opened with (the write ladder turns
// SyncWrites or the replication hook on).
func (s *stack) openAttached(dir string, traced bool, mod func(*serve.Config)) error {
	cfg, reg, tracer := storeConfig(traced)
	if mod != nil {
		mod(&cfg)
	}
	err := s.timed("open", func() (err error) {
		s.st, err = serve.Open(dir, cfg)
		return err
	})
	if err != nil {
		return err
	}
	s.reg, s.tracer, s.dir = reg, tracer, dir
	s.onClose(s.st.Close)
	return nil
}

// listen puts a server with the default net.Config (256 keys per
// round, 100 µs window) in front of n's store, sharing its registry
// and tracer.
func (s *stack) listen(n *node, cfg net.Config) error {
	cfg.Metrics, cfg.Tracer = n.reg, n.tracer
	srv, err := net.Listen(listenAddr, n.st, cfg)
	if err != nil {
		return err
	}
	n.srv = srv
	s.onClose(func() { _ = srv.Close() })
	return nil
}

// buildWire is the store-read stack behind a server and a pool of two
// connections.
func buildWire(ks *keySet, traced bool) (*stack, error) {
	s, err := buildStore(ks, traced, nil)
	if err != nil {
		return nil, err
	}
	err = s.timed("listen_dial", func() error {
		if err := s.listen(&s.node, net.Config{}); err != nil {
			return err
		}
		pool, err := net.DialPool(s.srv.Addr().String(), connections)
		if err != nil {
			return err
		}
		s.pool = pool
		s.onClose(func() { _ = pool.Close() })
		return nil
	})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// buildRouted is a primary (detached store with the replication log as
// its write hook, a replication listener and a serving port) and one
// follower bootstrapped from a shipped snapshot into dir, with its own
// serving port, behind a router: two serving connections in all.
func buildRouted(ks *keySet, dir string, traced bool) (*stack, error) {
	log := repl.NewLog(storeShards)
	s, err := buildStore(ks, traced, log)
	if err != nil {
		return nil, err
	}
	s.log = log
	fail := func(err error) (*stack, error) {
		s.close()
		return nil, err
	}
	snapDir := filepath.Join(dir, "snap")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return fail(err)
	}
	err = s.timed("listen_dial", func() error {
		pri, err := repl.NewPrimary(s.st, log, listenAddr, repl.PrimaryConfig{SnapDir: snapDir, Metrics: s.reg})
		if err != nil {
			return err
		}
		s.pri = pri
		s.onClose(func() { _ = pri.Close() })
		return s.listen(&s.node, net.Config{ReplStat: pri.ReplStatHook()})
	})
	if err != nil {
		return fail(err)
	}
	err = s.timed("bootstrap", func() error {
		cfg, reg, tracer := storeConfig(traced)
		// A follower that resyncs opens its store again with this
		// configuration, and a registry refuses the same series twice.
		cfg.Metrics = nil
		fol, err := repl.StartFollower(repl.FollowerConfig{
			Dir: filepath.Join(dir, "follower"), PrimaryAddr: s.pri.Addr().String(), Store: cfg, Metrics: reg,
		})
		if err != nil {
			return err
		}
		s.fol = fol
		s.onClose(fol.Stop)
		if err := fol.WaitReady(replTimeout); err != nil {
			return err
		}
		s.folNode = node{st: fol.Store(), reg: reg, tracer: tracer}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	err = s.timed("listen_dial", func() error {
		if err := s.listen(&s.folNode, net.Config{ReplStat: s.fol.ReplStatHook(), Promote: s.fol.PromoteHook()}); err != nil {
			return err
		}
		addrs := []string{s.srv.Addr().String(), s.folNode.srv.Addr().String()}
		router, err := repl.NewRouter(addrs, 0, repl.RouterConfig{})
		if err != nil {
			return err
		}
		s.router = router
		s.onClose(func() { _ = router.Close() })
		return nil
	})
	if err != nil {
		return fail(err)
	}
	return s, nil
}

// copyDir copies the files of src into the new directory dst: the state
// a crash would leave behind, taken while the store that owns src is
// still open.
func copyDir(src, dst string) error { return os.CopyFS(dst, os.DirFS(src)) }
