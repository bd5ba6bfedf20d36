package net

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/binio"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stats"
)

// Server defaults; see Config.
const (
	DefaultCoalesceWindow = 100 * time.Microsecond
	DefaultBatchCap       = 256
	DefaultMaxPending     = 4096
	DefaultMaxConns       = 1024
	defaultOutBuffer      = 1024
)

// Config configures a Server.
type Config struct {
	// CoalesceWindow is both the longest a point lookup waits for
	// companions and the pacing floor between coalesced GetBatch
	// rounds: a lookup arriving at an idle server is served
	// immediately, but under sustained load rounds run at most once
	// per window, so concurrent arrivals pile into one batch. With
	// BatchCap it fixes the server's coalesced-read capacity at
	// BatchCap/CoalesceWindow lookups per second — the measured
	// capacity admission control defends. 0 defaults to
	// DefaultCoalesceWindow.
	CoalesceWindow time.Duration

	// BatchCap is the largest coalesced GetBatch round. 0 defaults to
	// DefaultBatchCap.
	BatchCap int

	// MaxPending bounds the admission queue: requests admitted but not
	// yet answered. A request arriving with the queue full is refused
	// with msgRetryLater — shed explicitly, never queued without bound
	// and never dropped silently. 0 defaults to DefaultMaxPending.
	MaxPending int

	// MaxConns bounds accepted connections; one past the bound is sent
	// msgRetryLater and closed. 0 defaults to DefaultMaxConns.
	MaxConns int

	// Metrics, when non-nil, receives the server's observability
	// series: accept/shed/coalescer counters bound as scrape-time funcs
	// over the atomics the server maintains anyway, plus the service
	// latency histogram. The same registry's full snapshot rides every
	// stats frame as Stats.Vars — share one registry between the store
	// and its server to ship both layers in one frame.
	Metrics *obs.Registry

	// Tracer, when non-nil, samples point lookups and records their
	// queue-wait and coalesce-wait phases (share it with the store's
	// Config.Tracer for the route/probe/merge phases of the same
	// stack).
	Tracer *obs.Tracer

	// ReplStat, when non-nil, answers msgReplStat with this node's
	// replication role, epoch, applied generation, and per-shard applied
	// sequence numbers. Nodes without a replication layer leave it nil
	// and refuse the request.
	ReplStat func() (role uint8, epoch, gen uint64, seqs []uint64)

	// Promote, when non-nil, asks this node to become the primary
	// (drain any replication tail, lift the read-only gate). Invoked
	// from a connection's reader goroutine; it must be safe to call
	// more than once.
	Promote func() error
}

func (c Config) withDefaults() Config {
	if c.CoalesceWindow <= 0 {
		c.CoalesceWindow = DefaultCoalesceWindow
	}
	if c.BatchCap <= 0 {
		c.BatchCap = DefaultBatchCap
	}
	if c.MaxPending <= 0 {
		c.MaxPending = DefaultMaxPending
	}
	if c.MaxConns <= 0 {
		c.MaxConns = DefaultMaxConns
	}
	return c
}

// Server fronts a serve.Store over TCP. Start one with Serve or
// Listen; stop it with Close, which joins every goroutine the server
// started. The server does not own the store: close the store after
// the server, never before.
type Server struct {
	st  *serve.Store
	cfg Config
	ln  net.Listener

	mu     sync.Mutex
	conns  map[*srvConn]struct{}
	closed bool

	getC   chan getReq
	stopC  chan struct{}
	wg     sync.WaitGroup // accept loop + coalescer
	connWG sync.WaitGroup

	// Counters (see Stats).
	connCount    atomic.Int64
	pending      atomic.Int64
	maxPending   atomic.Int64
	accepted     atomic.Uint64
	shed         atomic.Uint64
	shedConns    atomic.Uint64
	droppedConns atomic.Uint64
	batches      atomic.Uint64
	batchedKeys  atomic.Uint64
	flushIdle    atomic.Uint64 // rounds flushed on the idle leading edge
	flushTimer   atomic.Uint64 // rounds flushed by the window timer
	flushFull    atomic.Uint64 // rounds that filled BatchCap
	lat          stats.Histogram

	reg    *obs.Registry
	tracer *obs.Tracer
}

// getReq is one coalescer-queued point lookup.
type getReq struct {
	key core.Key
	id  uint64
	c   *srvConn
	t0  time.Time
	sp  *obs.Span // non-nil on the tracer's sampling stride
}

// Listen starts a Server on a fresh TCP listener at addr
// (e.g. "127.0.0.1:0" for an ephemeral test port).
func Listen(addr string, st *serve.Store, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return serveOn(ln, st, cfg), nil
}

// serveOn starts a Server over an existing listener, which the Server
// takes ownership of (Close closes it).
func serveOn(ln net.Listener, st *serve.Store, cfg Config) *Server {
	s := &Server{
		st:    st,
		cfg:   cfg.withDefaults(),
		ln:    ln,
		conns: map[*srvConn]struct{}{},
		stopC: make(chan struct{}),
	}
	// Admission (pending <= MaxPending, enforced before any send)
	// guarantees the channel never fills, so producers never block on
	// it and the coalescer is its only consumer.
	s.getC = make(chan getReq, s.cfg.MaxPending)
	s.reg = s.cfg.Metrics
	s.tracer = s.cfg.Tracer
	s.registerMetrics(s.reg)
	s.wg.Add(2)
	go s.acceptLoop()
	go s.coalescer()
	return s
}

// registerMetrics binds the server's observability series into r as
// scrape-time funcs over the counters the server maintains anyway.
func (s *Server) registerMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	cf := func(a *atomic.Uint64) func() float64 {
		return func() float64 { return float64(a.Load()) }
	}
	r.CounterFunc("sosd_net_accepted_total", cf(&s.accepted))
	r.CounterFunc("sosd_net_shed_total", cf(&s.shed))
	r.CounterFunc("sosd_net_shed_conns_total", cf(&s.shedConns))
	r.CounterFunc("sosd_net_dropped_conns_total", cf(&s.droppedConns))
	r.CounterFunc("sosd_net_batches_total", cf(&s.batches))
	r.CounterFunc("sosd_net_batched_keys_total", cf(&s.batchedKeys))
	r.CounterFunc("sosd_net_flush_idle_total", cf(&s.flushIdle))
	r.CounterFunc("sosd_net_flush_timer_total", cf(&s.flushTimer))
	r.CounterFunc("sosd_net_flush_full_total", cf(&s.flushFull))
	r.GaugeFunc("sosd_net_conns", func() float64 { return float64(s.connCount.Load()) })
	r.GaugeFunc("sosd_net_queue_depth", func() float64 {
		if n := s.pending.Load(); n > 0 {
			return float64(n)
		}
		return 0
	})
	r.GaugeFunc("sosd_net_queue_depth_max", func() float64 { return float64(s.maxPending.Load()) })
	r.AttachHistogram("sosd_net_latency_ns", &s.lat)
}

// Addr reports the listener's address (the dial target).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Stats snapshots the server's counters and latency histogram.
func (s *Server) Stats() *Stats {
	clampU := func(v int64) uint64 {
		if v < 0 {
			return 0
		}
		return uint64(v)
	}
	return &Stats{
		conns:         clampU(s.connCount.Load()),
		Accepted:      s.accepted.Load(),
		Shed:          s.shed.Load(),
		ShedConns:     s.shedConns.Load(),
		DroppedConns:  s.droppedConns.Load(),
		Batches:       s.batches.Load(),
		BatchedKeys:   s.batchedKeys.Load(),
		queueDepth:    clampU(s.pending.Load()),
		MaxQueueDepth: clampU(s.maxPending.Load()),
		Latency:       s.lat.Snapshot(),
		Vars:          s.reg.Vars(),
	}
}

// Close stops the server: no new connections, every live connection
// severed, every server goroutine joined. In-flight requests on severed
// connections are abandoned (their clients see a closed connection, not
// silence on a live one). Close is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	err := s.ln.Close()
	for _, c := range conns {
		c.teardown()
	}
	s.connWG.Wait()
	close(s.stopC)
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed (Close) or fatally broken
		}
		if s.connCount.Load() >= int64(s.cfg.MaxConns) {
			// Accept-queue shed: an explicit busy signal, then the
			// connection closes — cheaper than a handshake the request
			// queue would refuse anyway.
			s.shedConns.Add(1)
			var buf binio.Writer
			_ = WriteMsg(nc, &buf, &Msg{Type: msgRetryLater})
			_ = nc.Close()
			continue
		}
		c := &srvConn{s: s, nc: nc, outC: make(chan *Msg, defaultOutBuffer), done: make(chan struct{})}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connCount.Add(1)
		s.connWG.Add(1)
		go c.run()
	}
}

// admit claims one admission-queue slot, or sheds: the counter is
// raised optimistically and rolled back on overflow, so concurrent
// admits can never exceed MaxPending. The slot is released by
// release() when the request's response is enqueued (or its
// connection abandoned).
func (s *Server) admit() bool {
	n := s.pending.Add(1)
	if n > int64(s.cfg.MaxPending) {
		s.pending.Add(-1)
		s.shed.Add(1)
		return false
	}
	s.accepted.Add(1)
	for {
		old := s.maxPending.Load()
		if n <= old || s.maxPending.CompareAndSwap(old, n) {
			return true
		}
	}
}

func (s *Server) release() { s.pending.Add(-1) }

// coalescer owns the point-lookup queue: it batches concurrent Gets
// into single store GetBatch rounds, immediately when the server has
// been idle for a window, paced to one round per window under load.
// Remainder past BatchCap stays queued for the next round — that
// queue growing into MaxPending is what makes admission shed.
func (s *Server) coalescer() {
	defer s.wg.Done()
	var pend []getReq
	keys := make([]core.Key, 0, s.cfg.BatchCap)
	vals := make([]uint64, s.cfg.BatchCap)
	fbits := make([]bool, s.cfg.BatchCap)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	timerArmed := false
	var lastFlush time.Time // zero: first flush is unpaced

	arm := func(d time.Duration) {
		if timerArmed {
			return
		}
		if d < 0 {
			d = 0
		}
		timer.Reset(d)
		timerArmed = true
	}
	flush := func(now time.Time, timerFired bool) {
		n := len(pend)
		if n > s.cfg.BatchCap {
			n = s.cfg.BatchCap
		}
		// Classify the round for the coalescer counters: a round that
		// fills its cap is batch-full regardless of what triggered it.
		switch {
		case n == s.cfg.BatchCap:
			s.flushFull.Add(1)
		case timerFired:
			s.flushTimer.Add(1)
		default:
			s.flushIdle.Add(1)
		}
		batch := pend[:n]
		keys = keys[:0]
		for _, g := range batch {
			keys = append(keys, g.key)
			g.sp.Mark(obs.PhaseCoalesceWait)
		}
		// GetBatchFound resolves each key's found bit against the same
		// shard snapshots as the batch (a zero payload is ambiguous in
		// out alone), so a coalesced Get never observes a write that
		// landed after its round.
		s.st.GetBatchFound(keys, vals[:n], fbits[:n])
		for i, g := range batch {
			g.c.send(&Msg{Type: msgValue, id: g.id, Val: vals[i], Found: fbits[i]})
			s.lat.Record(time.Since(g.t0).Nanoseconds())
			s.release()
		}
		s.batches.Add(1)
		s.batchedKeys.Add(uint64(n))
		rest := copy(pend, pend[n:])
		for i := rest; i < len(pend); i++ {
			pend[i] = getReq{} // drop conn references
		}
		pend = pend[:rest]
		lastFlush = now
		if len(pend) > 0 {
			arm(s.cfg.CoalesceWindow)
		}
	}

	for {
		select {
		case <-s.stopC:
			// Connections are already severed by Close; just drain the
			// queue so every admitted slot is released.
			for range pend {
				s.release()
			}
			for {
				select {
				case <-s.getC:
					s.release()
				default:
					timer.Stop()
					return
				}
			}
		case g := <-s.getC:
			g.sp.Mark(obs.PhaseQueueWait)
			pend = append(pend, g)
			now := time.Now()
			if now.Sub(lastFlush) >= s.cfg.CoalesceWindow {
				flush(now, false)
			} else {
				arm(s.cfg.CoalesceWindow - now.Sub(lastFlush))
			}
		case now := <-timer.C:
			timerArmed = false
			if len(pend) > 0 {
				flush(now, true)
			}
		}
	}
}

// srvConn is one accepted connection: a reader loop (run) decoding
// request frames and a writer goroutine draining the response queue,
// torn down together on the first error from either side.
type srvConn struct {
	s    *Server
	nc   net.Conn
	outC chan *Msg
	done chan struct{}
	once sync.Once
}

// teardown severs the connection: the reader unblocks on the closed
// socket, the writer on done. Safe to call from any goroutine, any
// number of times.
func (c *srvConn) teardown() {
	c.once.Do(func() {
		close(c.done)
		_ = c.nc.Close()
	})
}

// send enqueues a response without ever blocking the caller (the
// coalescer must not stall on one slow connection). A connection whose
// client is not draining responses has its queue fill up and is
// severed — a closed connection is an explicit failure at the client,
// unlike a silently dropped response on a live one.
func (c *srvConn) send(m *Msg) {
	select {
	case <-c.done:
	default:
		select {
		case c.outC <- m:
			return
		default:
			c.s.droppedConns.Add(1)
			c.teardown()
		}
	}
}

func (c *srvConn) run() {
	defer c.s.connWG.Done()
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		c.writer()
	}()

	var scratch []byte
	for {
		m, sc, err := ReadMsg(c.nc, scratch)
		if err != nil {
			break // EOF, severed, or corrupt frame: the stream is over
		}
		scratch = sc
		c.handle(m)
	}
	c.teardown()
	writerWG.Wait()

	c.s.mu.Lock()
	delete(c.s.conns, c)
	c.s.mu.Unlock()
	c.s.connCount.Add(-1)
}

func (c *srvConn) writer() {
	var buf binio.Writer
	for {
		select {
		case <-c.done:
			return
		case m := <-c.outC:
			if err := WriteMsg(c.nc, &buf, m); err != nil {
				c.teardown()
				return
			}
		}
	}
}

// handle dispatches one decoded request on the reader goroutine.
// Writes and explicit batch lookups execute inline — the store's write
// path is internally synchronized and its GetBatch already runs the
// batched fast path — while point lookups go to the coalescer. Every
// admitted request is answered exactly once; every refusal is an
// explicit msgRetryLater.
func (c *srvConn) handle(m *Msg) {
	s := c.s
	switch m.Type {
	case msgStats:
		// Monitoring must work under overload: never admission-gated.
		c.send(&Msg{Type: msgStatsReply, id: m.id, stats: s.Stats()})
	case msgTopo:
		// Routing metadata, like monitoring: never admission-gated.
		c.send(&Msg{Type: msgTopoReply, id: m.id, keys: s.st.Separators()})
	case msgReplStat:
		if s.cfg.ReplStat == nil {
			c.send(&Msg{Type: msgError, id: m.id, err: "no replication status"})
			return
		}
		role, epoch, gen, seqs := s.cfg.ReplStat()
		c.send(&Msg{Type: msgReplStatReply, id: m.id, role: role, Epoch: epoch, Gen: gen, Seqs: seqs})
	case msgPromote:
		if s.cfg.Promote == nil {
			c.send(&Msg{Type: msgError, id: m.id, err: "not promotable"})
			return
		}
		if err := s.cfg.Promote(); err != nil {
			c.send(&Msg{Type: msgError, id: m.id, err: err.Error()})
			return
		}
		c.send(&Msg{Type: msgOK, id: m.id})
	case msgGet:
		if !s.admit() {
			c.send(&Msg{Type: msgRetryLater, id: m.id})
			return
		}
		// Admission bounds occupancy, so this send cannot block.
		s.getC <- getReq{key: m.key, id: m.id, c: c, t0: time.Now(), sp: s.tracer.Sample()}
	case msgGetBatch:
		if !s.admit() {
			c.send(&Msg{Type: msgRetryLater, id: m.id})
			return
		}
		t0 := time.Now()
		vals := make([]uint64, len(m.keys))
		found := s.st.GetBatch(m.keys, vals)
		c.send(&Msg{Type: msgValueBatch, id: m.id, vals: vals, foundN: uint32(found)})
		s.lat.Record(time.Since(t0).Nanoseconds())
		s.release()
	case msgPut, msgDelete:
		if s.st.ReadOnly() {
			c.send(&Msg{Type: msgError, id: m.id, err: "read-only replica"})
			return
		}
		if !s.admit() {
			c.send(&Msg{Type: msgRetryLater, id: m.id})
			return
		}
		t0 := time.Now()
		if m.Type == msgPut {
			s.st.Put(m.key, m.Val)
		} else {
			s.st.Delete(m.key)
		}
		c.send(&Msg{Type: msgOK, id: m.id})
		s.lat.Record(time.Since(t0).Nanoseconds())
		s.release()
	default:
		c.send(&Msg{Type: msgError, id: m.id, err: "not a request type"})
	}
}
