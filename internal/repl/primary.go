package repl

import (
	"fmt"
	"io"
	stdnet "net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/binio"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/serve"
)

// Primary defaults; see PrimaryConfig.
const (
	defaultHeartbeatEvery = 50 * time.Millisecond
	defaultStreamBatch    = 1024
)

// PrimaryConfig configures a replication primary.
type PrimaryConfig struct {
	// heartbeatEvery paces MsgHeartbeat frames to idle followers (a
	// liveness and lag signal). 0 defaults to defaultHeartbeatEvery.
	heartbeatEvery time.Duration

	// streamBatch caps ops per MsgWalBatch frame. 0 defaults to
	// defaultStreamBatch; clamped to net.MaxWalOps.
	streamBatch int

	// chunkSize caps one snapshot-file chunk on the wire. 0 defaults
	// to net.MaxSnapChunk (also the hard cap). Tests shrink it to
	// exercise kills mid-bootstrap.
	chunkSize int

	// SnapDir is the scratch directory bootstrap snapshots are exported
	// into (one temp dir per bootstrap, removed after shipping). Empty
	// defaults to the OS temp dir.
	SnapDir string

	// Metrics, when non-nil, receives the primary's stream counters.
	Metrics *obs.Registry
}

func (c PrimaryConfig) withDefaults() PrimaryConfig {
	if c.heartbeatEvery <= 0 {
		c.heartbeatEvery = defaultHeartbeatEvery
	}
	if c.streamBatch <= 0 {
		c.streamBatch = defaultStreamBatch
	}
	if c.streamBatch > net.MaxWalOps {
		c.streamBatch = net.MaxWalOps
	}
	if c.chunkSize <= 0 || c.chunkSize > net.MaxSnapChunk {
		c.chunkSize = net.MaxSnapChunk
	}
	return c
}

// Primary streams a store's writes to subscribed followers. It owns a
// dedicated replication listener (separate from the serving port, so a
// bulk snapshot ship can never stall the read path's coalescer) and one
// session per follower connection: subscribe, bootstrap if the
// follower's position is unknown or evicted, then the live tail plus
// heartbeats. Create the store with Config.WriteHook = log.Hook() so
// every write reaches the stream.
type Primary struct {
	st  *serve.Store
	log *Log
	cfg PrimaryConfig
	ln  stdnet.Listener

	mu       sync.Mutex
	sessions map[*session]struct{}
	closed   bool
	wg       sync.WaitGroup

	ackCond *sync.Cond // broadcast on every ack; WaitAcked waits here

	// Stream accounting. Acked counts ops a follower confirmed
	// received, so ackedOps <= streamedOps is a law, not a tendency.
	streamedOps atomic.Uint64
	ackedOps    atomic.Uint64
	snapBytes   atomic.Uint64
	bootstraps  atomic.Uint64
	resyncs     atomic.Uint64
}

// session is one follower's connection: the serve loop is the only
// writer (stream frames and heartbeats), ackLoop the only reader.
type session struct {
	p    *Primary
	nc   stdnet.Conn
	done chan struct{}
	once sync.Once

	mu    sync.Mutex
	start []uint64 // stream position at session start (acks credit from here)
	sent  []uint64 // per-shard seq streamed
	acked []uint64 // per-shard seq acked by the follower
}

// PrimaryStats is a snapshot of the primary's stream accounting.
type PrimaryStats struct {
	Followers   int
	StreamedOps uint64 // ops sent in wal-batch frames
	AckedOps    uint64 // ops followers confirmed received
	SnapBytes   uint64 // snapshot bytes shipped during bootstraps
	Bootstraps  uint64
	Resyncs     uint64 // sessions told to restart from a snapshot
}

// NewPrimary starts a replication primary for st on addr (e.g.
// "127.0.0.1:0"). log must be the same Log st's WriteHook feeds.
func NewPrimary(st *serve.Store, log *Log, addr string, cfg PrimaryConfig) (*Primary, error) {
	if log.numShards() != st.NumShards() {
		return nil, fmt.Errorf("repl: log has %d shards, store %d", log.numShards(), st.NumShards())
	}
	ln, err := stdnet.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &Primary{st: st, log: log, cfg: cfg.withDefaults(), ln: ln, sessions: map[*session]struct{}{}}
	p.ackCond = sync.NewCond(&p.mu)
	p.registerMetrics(p.cfg.Metrics)
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

func (p *Primary) registerMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	cf := func(a *atomic.Uint64) func() float64 {
		return func() float64 { return float64(a.Load()) }
	}
	r.CounterFunc("sosd_repl_streamed_ops_total", cf(&p.streamedOps))
	r.CounterFunc("sosd_repl_acked_ops_total", cf(&p.ackedOps))
	r.CounterFunc("sosd_repl_snapshot_bytes_total", cf(&p.snapBytes))
	r.CounterFunc("sosd_repl_bootstraps_total", cf(&p.bootstraps))
	r.CounterFunc("sosd_repl_resyncs_total", cf(&p.resyncs))
	r.GaugeFunc("sosd_repl_followers", func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return float64(len(p.sessions))
	})
}

// Addr is the replication listener's address (the follower dial target).
func (p *Primary) Addr() stdnet.Addr { return p.ln.Addr() }

// ReplStatHook adapts the primary to net.Config.ReplStat for its
// serving port.
func (p *Primary) ReplStatHook() func() (uint8, uint64, uint64, []uint64) {
	return func() (uint8, uint64, uint64, []uint64) {
		return net.RolePrimary, p.log.epoch, 0, p.log.Seqs()
	}
}

// Stats snapshots the stream accounting.
func (p *Primary) Stats() PrimaryStats {
	p.mu.Lock()
	followers := len(p.sessions)
	p.mu.Unlock()
	return PrimaryStats{
		Followers:   followers,
		StreamedOps: p.streamedOps.Load(),
		AckedOps:    p.ackedOps.Load(),
		SnapBytes:   p.snapBytes.Load(),
		Bootstraps:  p.bootstraps.Load(),
		Resyncs:     p.resyncs.Load(),
	}
}

// WaitAcked blocks until every connected follower has acknowledged the
// log's current tail (quiesce the writers first, or this chases a
// moving target), or the timeout passes. It returns an error on
// timeout; zero followers satisfies it trivially.
func (p *Primary) WaitAcked(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		p.mu.Lock()
		p.ackCond.Broadcast()
		p.mu.Unlock()
	})
	defer timer.Stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		want := p.log.Seqs()
		caught := true
		for s := range p.sessions {
			s.mu.Lock()
			for i, q := range want {
				if s.acked[i] < q {
					caught = false
					break
				}
			}
			s.mu.Unlock()
			if !caught {
				break
			}
		}
		if caught {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("repl: WaitAcked timed out after %v", timeout)
		}
		p.ackCond.Wait()
	}
}

// Close stops the listener, severs every follower session, and joins
// all primary goroutines. The store is not touched.
func (p *Primary) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	sessions := make([]*session, 0, len(p.sessions))
	for s := range p.sessions {
		sessions = append(sessions, s)
	}
	p.mu.Unlock()
	err := p.ln.Close()
	for _, s := range sessions {
		s.teardown()
	}
	p.wg.Wait()
	return err
}

func (p *Primary) acceptLoop() {
	defer p.wg.Done()
	for {
		nc, err := p.ln.Accept()
		if err != nil {
			return
		}
		s := &session{p: p, nc: nc, done: make(chan struct{})}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = nc.Close()
			continue
		}
		p.sessions[s] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go s.serve()
	}
}

func (s *session) teardown() {
	s.once.Do(func() {
		close(s.done)
		_ = s.nc.Close()
	})
}

// serve runs one follower session to completion: handshake, optional
// bootstrap, then the live stream until either side goes away.
func (s *session) serve() {
	p := s.p
	defer func() {
		s.teardown()
		p.mu.Lock()
		delete(p.sessions, s)
		p.ackCond.Broadcast() // WaitAcked must not wait on a gone session
		p.mu.Unlock()
		p.wg.Done()
	}()

	var wbuf binio.Writer
	sub, _, err := net.ReadMsg(s.nc, nil)
	if err != nil || sub.Type != net.MsgSubscribe {
		return
	}
	shards := p.st.NumShards()

	// Decide stream-from-position versus bootstrap: an unknown epoch, a
	// malformed vector, or a position the ring has evicted all mean the
	// follower's state cannot be caught up incrementally.
	needBoot := sub.Epoch != p.log.epoch || len(sub.Seqs) != shards
	if !needBoot {
		for i, q := range sub.Seqs {
			if _, ok := p.log.tailFrom(i, q, 1); !ok {
				needBoot = true
				break
			}
		}
	}

	s.mu.Lock()
	if needBoot {
		s.start = make([]uint64, shards)
	} else {
		s.start = append([]uint64(nil), sub.Seqs...)
	}
	s.sent = append([]uint64(nil), s.start...)
	s.acked = append([]uint64(nil), s.start...)
	s.mu.Unlock()

	if needBoot {
		if sub.Epoch != 0 || len(sub.Seqs) != 0 {
			p.resyncs.Add(1)
		}
		if err := s.bootstrap(&wbuf); err != nil {
			return
		}
	}

	// Acks flow back on their own goroutine; the stream loop below is
	// the connection's only writer.
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		s.ackLoop()
	}()

	s.stream(&wbuf)
	s.teardown()
	<-ackDone
}

// bootstrap is a pipeline: the store exports its shards (each
// capturing its stream position under its write lock) and a shard's
// files ship chunk by chunk as soon as its export completes, while
// later shards are still being written. MsgResync goes out ahead of the
// first file and no earlier: the follower drops its local state on it.
// The manifest goes last, then the position vector the snapshot
// corresponds to; only then does the follower commit, by renaming the
// manifest into place.
func (s *session) bootstrap(wbuf *binio.Writer) error {
	p := s.p
	p.bootstraps.Add(1)
	dir, err := os.MkdirTemp(p.cfg.SnapDir, "repl-snap-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	base := make([]uint64, p.st.NumShards())
	// Room for every shard: the export never waits on the ship. A failed
	// ship sets dead, and the export stops at its next shard.
	done := make(chan persist.ShardMeta, len(base))
	var dead atomic.Bool
	exportErr := make(chan error, 1)
	go func() {
		exportErr <- p.st.SnapshotWith(dir,
			func(i int) { base[i] = p.log.seqOf(i) },
			func(sm persist.ShardMeta) error {
				if dead.Load() {
					return fmt.Errorf("repl: bootstrap ship failed")
				}
				done <- sm
				return nil
			})
		close(done)
	}()
	chunk := make([]byte, p.cfg.chunkSize)
	shipErr, resynced := error(nil), false
	for sm := range done { // drained to the end: dir must outlive the export
		if !resynced {
			shipErr, resynced = net.WriteMsg(s.nc, wbuf, &net.Msg{Type: net.MsgResync}), true
		}
		var names []string
		for _, run := range sm.Runs {
			names = append(names, run.File)
		}
		for _, name := range append(names, sm.WAL) {
			if shipErr == nil {
				shipErr = s.shipFile(wbuf, chunk, dir, name)
			}
		}
		dead.Store(shipErr != nil)
	}
	if shipErr != nil {
		return shipErr
	}
	if err := <-exportErr; err != nil {
		return err
	}
	m, err := persist.ReadManifest(filepath.Join(dir, persist.ManifestName))
	if err != nil {
		return err
	}
	if err := s.shipFile(wbuf, chunk, dir, persist.ManifestName); err != nil {
		return err
	}
	s.mu.Lock()
	s.start = append([]uint64(nil), base...)
	s.sent = append([]uint64(nil), base...)
	s.acked = append([]uint64(nil), base...)
	s.mu.Unlock()
	return net.WriteMsg(s.nc, wbuf, &net.Msg{
		Type: net.MsgSnapEnd, Epoch: p.log.epoch, Gen: m.Gen, Seqs: base,
	})
}

// shipFile streams one snapshot file as MsgSnapFile chunks of len(buf)
// bytes. Every file sends at least one chunk (the last-chunk bit is how
// the follower knows to close and fsync it), so empty files ship too.
func (s *session) shipFile(wbuf *binio.Writer, buf []byte, dir, name string) error {
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	var off uint64
	for {
		n, rerr := io.ReadFull(f, buf)
		if rerr != nil && rerr != io.EOF && rerr != io.ErrUnexpectedEOF {
			return rerr
		}
		last := rerr != nil
		msg := &net.Msg{
			Type: net.MsgSnapFile, Name: name, Val: off,
			Found: last, Data: buf[:n],
		}
		if n == 0 && off > 0 {
			// The previous full chunk ended exactly at EOF; it already
			// carried last=false, so send the empty terminator.
			msg.Data = nil
		}
		if err := net.WriteMsg(s.nc, wbuf, msg); err != nil {
			return err
		}
		s.p.snapBytes.Add(uint64(n))
		off += uint64(n)
		if last {
			return nil
		}
	}
}

// stream is the live tail: drain every shard's ring past the session
// cursor, wait for the next append or heartbeat tick, repeat. A
// follower that falls off the ring mid-stream is told to resync and
// the session ends (it reconnects into a fresh bootstrap).
func (s *session) stream(wbuf *binio.Writer) {
	p := s.p
	hb := time.NewTicker(p.cfg.heartbeatEvery)
	defer hb.Stop()
	for {
		ch := p.log.updated()
		progress := false
		for i := 0; i < p.st.NumShards(); i++ {
			for {
				s.mu.Lock()
				from := s.sent[i]
				s.mu.Unlock()
				ops, ok := p.log.tailFrom(i, from, p.cfg.streamBatch)
				if !ok {
					p.resyncs.Add(1)
					_ = net.WriteMsg(s.nc, wbuf, &net.Msg{Type: net.MsgResync})
					return
				}
				if len(ops) == 0 {
					break
				}
				err := net.WriteMsg(s.nc, wbuf, &net.Msg{
					Type: net.MsgWalBatch, Shard: uint32(i), Seq: from + 1, Ops: ops,
				})
				if err != nil {
					return
				}
				s.mu.Lock()
				s.sent[i] = from + uint64(len(ops))
				s.mu.Unlock()
				p.streamedOps.Add(uint64(len(ops)))
				progress = true
			}
		}
		if progress {
			continue
		}
		select {
		case <-s.done:
			return
		case <-ch:
		case <-hb.C:
			err := net.WriteMsg(s.nc, wbuf, &net.Msg{
				Type: net.MsgHeartbeat, Epoch: p.log.epoch, Seqs: p.log.Seqs(),
			})
			if err != nil {
				return
			}
		}
	}
}

// ackLoop consumes the follower's ack frames, credits the acked-op
// accounting (never past what was streamed), and wakes WaitAcked.
func (s *session) ackLoop() {
	p := s.p
	var scratch []byte
	for {
		m, sc, err := net.ReadMsg(s.nc, scratch)
		if err != nil {
			return
		}
		scratch = sc
		if m.Type != net.MsgAck || len(m.Seqs) != len(s.acked) {
			return
		}
		s.mu.Lock()
		var delta uint64
		for i, q := range m.Seqs {
			if q > s.sent[i] {
				q = s.sent[i] // a law, not trust: acked <= streamed
			}
			if q > s.acked[i] {
				delta += q - s.acked[i]
				s.acked[i] = q
			}
		}
		s.mu.Unlock()
		if delta > 0 {
			p.ackedOps.Add(delta)
		}
		p.mu.Lock()
		p.ackCond.Broadcast()
		p.mu.Unlock()
	}
}
