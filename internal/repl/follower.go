package repl

import (
	"errors"
	"fmt"
	stdnet "net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/binio"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/serve"
)

// Follower defaults; see FollowerConfig.
const (
	defaultSyncEvery   = 32
	defaultRedialEvery = 50 * time.Millisecond
	dialTimeout        = time.Second
)

// FollowerConfig configures a replication follower.
type FollowerConfig struct {
	// Dir is the follower's replica directory: the shipped snapshot
	// lands here, the attached store journals here, and REPLSTATE holds
	// the durable stream position. Required.
	Dir string

	// PrimaryAddr is the primary's replication listener. Required.
	PrimaryAddr string

	// Store configures the attached read-only store (family, shards,
	// compaction policy). SyncWrites should stay off: the follower
	// batches durability behind syncEvery.
	Store serve.Config

	// syncEvery is the REPLSTATE cadence in applied wal-batches: after
	// this many, the store's WAL is synced and the position committed.
	// Lower is tighter crash recovery, higher is cheaper. 0 defaults to
	// defaultSyncEvery.
	syncEvery int

	// redialEvery paces reconnect attempts to a dead primary. 0
	// defaults to defaultRedialEvery.
	redialEvery time.Duration

	// Metrics, when non-nil, receives the follower's apply counters.
	Metrics *obs.Registry
}

func (c FollowerConfig) withDefaults() FollowerConfig {
	if c.syncEvery <= 0 {
		c.syncEvery = defaultSyncEvery
	}
	if c.redialEvery <= 0 {
		c.redialEvery = defaultRedialEvery
	}
	return c
}

// Follower subscribes to a primary and maintains a read-only replica
// store: bootstrap from a shipped snapshot when its position is
// unknown, then apply the live stream, acking every batch on receipt
// (so applied <= acked <= streamed holds by construction) and
// committing its durable position only after its own WAL is synced.
// It survives being killed at any point — a restart resumes from
// REPLSTATE, and a primary that cannot serve that position re-ships a
// snapshot.
type Follower struct {
	cfg FollowerConfig

	mu      sync.Mutex
	st      *serve.Store // nil until bootstrapped or warm-opened
	epoch   uint64
	gen     uint64
	applied []uint64 // per-shard applied seq (may lead REPLSTATE)
	ready   chan struct{}
	readyOK bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	promoted atomic.Bool

	conMu sync.Mutex // current connection, severed by Stop/Promote
	nc    stdnet.Conn

	appliedOps atomic.Uint64
	ackedOps   atomic.Uint64
	lagOps     atomic.Uint64 // behind primary, from the last heartbeat
	resyncs    atomic.Uint64
	stateSyncs atomic.Uint64
}

// FollowerStats is a snapshot of the follower's apply accounting.
type FollowerStats struct {
	AppliedOps uint64 // ops folded into the store
	AckedOps   uint64 // ops acknowledged to the primary
	LagOps     uint64 // ops behind the primary at the last heartbeat
	Resyncs    uint64 // bootstraps this process ran
	StateSyncs uint64 // REPLSTATE commits
}

// StartFollower opens (or prepares) the replica directory and starts
// the subscription loop. A directory holding a committed snapshot is
// warm-opened immediately — the store serves stale reads while the
// stream catches up; a fresh directory serves nothing until the first
// bootstrap completes (WaitReady).
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" || cfg.PrimaryAddr == "" {
		return nil, errors.New("repl: follower needs Dir and PrimaryAddr")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	f := &Follower{cfg: cfg, ready: make(chan struct{}), stop: make(chan struct{})}
	f.registerMetrics(cfg.Metrics)

	// Warm start: a committed REPLSTATE names a position inside a
	// committed snapshot; open the store (its WAL replay may be ahead
	// of REPLSTATE — the primary re-streams that suffix, which replays
	// convergently). Any failure here falls back to a cold bootstrap.
	if state, err := readState(cfg.Dir); err == nil {
		if st, err := serve.Open(cfg.Dir, cfg.Store); err == nil {
			st.SetReadOnly(true)
			f.st = st
			f.epoch = state.epoch
			f.gen = state.gen
			f.applied = append([]uint64(nil), state.seqs...)
			f.signalReady()
		}
	}

	f.wg.Add(1)
	go f.run()
	return f, nil
}

func (f *Follower) registerMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	cf := func(a *atomic.Uint64) func() float64 {
		return func() float64 { return float64(a.Load()) }
	}
	r.CounterFunc("sosd_repl_applied_ops_total", cf(&f.appliedOps))
	r.CounterFunc("sosd_repl_follower_acked_ops_total", cf(&f.ackedOps))
	r.CounterFunc("sosd_repl_follower_resyncs_total", cf(&f.resyncs))
	r.CounterFunc("sosd_repl_state_syncs_total", cf(&f.stateSyncs))
	r.GaugeFunc("sosd_repl_lag_ops", func() float64 { return float64(f.lagOps.Load()) })
}

func (f *Follower) signalReady() {
	if !f.readyOK {
		f.readyOK = true
		close(f.ready)
	}
}

// Store returns the replica store, or nil before the first bootstrap
// commits. The store stays valid until Stop.
func (f *Follower) Store() *serve.Store {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

// Stats snapshots the apply accounting.
func (f *Follower) Stats() FollowerStats {
	return FollowerStats{
		AppliedOps: f.appliedOps.Load(),
		AckedOps:   f.ackedOps.Load(),
		LagOps:     f.lagOps.Load(),
		Resyncs:    f.resyncs.Load(),
		StateSyncs: f.stateSyncs.Load(),
	}
}

// appliedSeqs snapshots the per-shard applied sequence vector.
func (f *Follower) appliedSeqs() []uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]uint64(nil), f.applied...)
}

// ReplStatHook adapts the follower to net.Config.ReplStat for its
// serving port: role flips to primary after promotion.
func (f *Follower) ReplStatHook() func() (uint8, uint64, uint64, []uint64) {
	return func() (uint8, uint64, uint64, []uint64) {
		f.mu.Lock()
		defer f.mu.Unlock()
		role := uint8(net.RoleFollower)
		if f.promoted.Load() {
			role = net.RolePrimary
		}
		return role, f.epoch, f.gen, append([]uint64(nil), f.applied...)
	}
}

// PromoteHook adapts Promote to net.Config.Promote.
func (f *Follower) PromoteHook() func() error { return func() error { return f.promote() } }

// WaitReady blocks until the replica store exists (first bootstrap
// committed or warm-opened) or the timeout passes.
func (f *Follower) WaitReady(timeout time.Duration) error {
	select {
	case <-f.ready:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("repl: follower not ready after %v", timeout)
	}
}

// WaitCaughtUp blocks until the applied vector reaches want (the
// primary's Log.Seqs at some quiesced moment) or the timeout passes.
func (f *Follower) WaitCaughtUp(want []uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		f.mu.Lock()
		ok := f.st != nil && len(f.applied) == len(want)
		if ok {
			for i, q := range want {
				if f.applied[i] < q {
					ok = false
					break
				}
			}
		}
		f.mu.Unlock()
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("repl: not caught up to %v after %v (at %v)", want, timeout, f.appliedSeqs())
		}
		time.Sleep(time.Millisecond)
	}
}

// promote ends the subscription and turns the replica writable: the
// stream is severed, the WAL synced, the read-only gate lifted. The
// store keeps serving throughout. Safe to call more than once; fails
// before the first bootstrap commits.
func (f *Follower) promote() error {
	f.mu.Lock()
	st := f.st
	f.mu.Unlock()
	if st == nil {
		return errors.New("repl: cannot promote before bootstrap")
	}
	if f.promoted.Swap(true) {
		return nil
	}
	f.severConn()
	if err := st.SyncWAL(); err != nil {
		return err
	}
	st.SetReadOnly(false)
	return nil
}

// Stop ends the subscription loop gracefully: the final position is
// made durable (WAL sync + REPLSTATE) before the store closes. Not a
// crash simulation — use Kill for that.
func (f *Follower) Stop() {
	f.halt()
	f.mu.Lock()
	st := f.st
	f.st = nil
	f.mu.Unlock()
	if st != nil {
		_ = f.syncState(st)
		st.Close()
	}
}

func (f *Follower) halt() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.severConn()
	f.wg.Wait()
}

func (f *Follower) severConn() {
	f.conMu.Lock()
	if f.nc != nil {
		_ = f.nc.Close()
	}
	f.conMu.Unlock()
}

func (f *Follower) stopping() bool {
	select {
	case <-f.stop:
		return true
	default:
		return f.promoted.Load()
	}
}

// run is the subscription loop: dial, subscribe from the current
// position, process the stream until the connection dies, repeat.
func (f *Follower) run() {
	defer f.wg.Done()
	for !f.stopping() {
		nc, err := stdnet.DialTimeout("tcp", f.cfg.PrimaryAddr, dialTimeout)
		if err != nil {
			select {
			case <-f.stop:
				return
			case <-time.After(f.cfg.redialEvery):
			}
			continue
		}
		f.conMu.Lock()
		f.nc = nc
		f.conMu.Unlock()
		if f.stopping() {
			_ = nc.Close()
			return
		}
		f.session(nc)
		_ = nc.Close()
		if !f.stopping() {
			select {
			case <-f.stop:
				return
			case <-time.After(f.cfg.redialEvery):
			}
		}
	}
}

// session runs one connection: subscribe, then the frame loop.
func (f *Follower) session(nc stdnet.Conn) {
	var wbuf binio.Writer
	f.mu.Lock()
	sub := &net.Msg{Type: net.MsgSubscribe, Epoch: f.epoch, Gen: f.gen,
		Seqs: append([]uint64(nil), f.applied...)}
	f.mu.Unlock()
	if err := net.WriteMsg(nc, &wbuf, sub); err != nil {
		return
	}

	var scratch []byte
	var boot *bootstrapRx
	sinceSync := 0
	for {
		m, sc, err := net.ReadMsg(nc, scratch)
		if err != nil {
			return
		}
		scratch = sc
		switch m.Type {
		case net.MsgResync:
			// A snapshot is coming (or the stream fell off the ring —
			// either way the local position is void). Drop the store;
			// the directory is overwritten file by file and re-committed
			// at the manifest rename.
			f.resyncs.Add(1)
			f.mu.Lock()
			st := f.st
			f.st = nil
			f.mu.Unlock()
			if st != nil {
				st.Close()
			}
			if boot != nil {
				boot.abort()
			}
			boot = &bootstrapRx{dir: f.cfg.Dir}
		case net.MsgSnapFile:
			if boot == nil {
				return // protocol violation: snapshot chunk outside a bootstrap
			}
			if err := boot.chunk(m); err != nil {
				boot.abort()
				return
			}
		case net.MsgSnapEnd:
			if boot == nil {
				return
			}
			if err := boot.commit(); err != nil {
				boot.abort()
				return
			}
			boot = nil
			st, err := serve.Open(f.cfg.Dir, f.cfg.Store)
			if err != nil {
				return
			}
			st.SetReadOnly(true)
			f.mu.Lock()
			f.st = st
			f.epoch = m.Epoch
			f.gen = m.Gen
			f.applied = append([]uint64(nil), m.Seqs...)
			f.signalReady()
			f.mu.Unlock()
			if err := writeState(f.cfg.Dir, &state{epoch: m.Epoch, gen: m.Gen, seqs: m.Seqs}); err != nil {
				return
			}
			f.stateSyncs.Add(1)
			if err := f.sendAck(nc, &wbuf); err != nil {
				return
			}
		case net.MsgWalBatch:
			f.mu.Lock()
			st := f.st
			okShard := st != nil && int(m.Shard) < len(f.applied)
			// This loop applies each batch before it reads the next, so
			// what it has applied is also all it has received so far.
			received := append([]uint64(nil), f.applied...)
			f.mu.Unlock()
			if !okShard || m.Seq > received[m.Shard]+1 {
				return // no store yet, or a gap: resubscribe from REPLSTATE
			}
			ops := m.Ops
			if skip := received[m.Shard] + 1 - m.Seq; skip > 0 {
				if skip >= uint64(len(ops)) {
					ops = nil // stale duplicate, already applied
				} else {
					ops = ops[skip:]
				}
			}
			// Ack on receipt, before the apply: acked may lead applied,
			// never trail it — applied <= acked <= streamed.
			end := m.Seq + uint64(len(m.Ops)) - 1
			received[m.Shard] = max(received[m.Shard], end)
			f.ackedOps.Add(uint64(len(m.Ops)))
			if err := net.WriteMsg(nc, &wbuf, &net.Msg{Type: net.MsgAck, Seqs: received}); err != nil {
				return
			}
			if len(ops) > 0 {
				if err := st.Apply(int(m.Shard), ops); err != nil {
					return
				}
				f.appliedOps.Add(uint64(len(ops)))
			}
			// The position moves only now that the ops are readable:
			// whoever sees it (WaitCaughtUp, appliedSeqs, the heartbeat lag,
			// REPLSTATE, the next subscription) can read what it covers.
			f.mu.Lock()
			f.applied[m.Shard] = max(f.applied[m.Shard], end)
			f.mu.Unlock()
			if sinceSync++; sinceSync >= f.cfg.syncEvery {
				sinceSync = 0
				if err := f.syncState(st); err != nil {
					return
				}
			}
		case net.MsgHeartbeat:
			f.mu.Lock()
			var lag uint64
			if len(m.Seqs) == len(f.applied) {
				for i, q := range m.Seqs {
					if q > f.applied[i] {
						lag += q - f.applied[i]
					}
				}
			}
			f.mu.Unlock()
			f.lagOps.Store(lag)
		default:
			return
		}
	}
}

// sendAck reports the current applied vector back to the primary.
func (f *Follower) sendAck(nc stdnet.Conn, wbuf *binio.Writer) error {
	f.mu.Lock()
	seqs := append([]uint64(nil), f.applied...)
	f.mu.Unlock()
	return net.WriteMsg(nc, wbuf, &net.Msg{Type: net.MsgAck, Seqs: seqs})
}

// syncState makes the applied position durable: the store's WAL first
// (the ops themselves), REPLSTATE second (the claim). The order is the
// invariant — a position is never claimed before its ops are on disk.
func (f *Follower) syncState(st *serve.Store) error {
	if err := st.SyncWAL(); err != nil {
		return err
	}
	f.mu.Lock()
	state := &state{epoch: f.epoch, gen: f.gen, seqs: append([]uint64(nil), f.applied...)}
	f.mu.Unlock()
	if err := writeState(f.cfg.Dir, state); err != nil {
		return err
	}
	f.stateSyncs.Add(1)
	return nil
}

// bootstrapRx reassembles a shipped snapshot: data files land under
// their real names (harmless without a manifest), the manifest lands
// under a temp name and is renamed into place by commit — the same
// commit point the store's own persistence uses.
type bootstrapRx struct {
	dir      string
	cur      *os.File
	curName  string
	curOff   uint64 // bytes of cur received so far
	manifest string // temp path of the received manifest, "" until seen
}

func (b *bootstrapRx) abort() {
	if b.cur != nil {
		b.cur.Close()
		b.cur = nil
	}
	if b.manifest != "" {
		os.Remove(b.manifest)
		b.manifest = ""
	}
}

// chunk appends one MsgSnapFile frame to its file, opening on first
// chunk (offset 0) and closing+syncing on the last.
func (b *bootstrapRx) chunk(m *net.Msg) error {
	if !safeSnapName(m.Name) {
		return fmt.Errorf("repl: unsafe snapshot file name %q", m.Name)
	}
	if b.cur == nil {
		if m.Val != 0 {
			return fmt.Errorf("repl: snapshot chunk for %q starts at offset %d", m.Name, m.Val)
		}
		name := m.Name
		if name == persist.ManifestName {
			name = persist.ManifestName + ".shipped"
		}
		// Unlink, never truncate: the store this resync replaced, which
		// a serving port may still read, can map the old file.
		path := filepath.Join(b.dir, name)
		os.Remove(path)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		b.cur, b.curName, b.curOff = f, m.Name, 0
		if m.Name == persist.ManifestName {
			b.manifest = f.Name()
		}
	} else if b.curName != m.Name {
		return fmt.Errorf("repl: interleaved snapshot files %q and %q", b.curName, m.Name)
	} else if b.curOff != m.Val {
		return fmt.Errorf("repl: %q chunk at offset %d, file at %d", m.Name, m.Val, b.curOff)
	}
	if _, err := b.cur.Write(m.Data); err != nil {
		return err
	}
	b.curOff += uint64(len(m.Data))
	if m.Found { // last chunk
		if err := b.cur.Sync(); err != nil {
			return err
		}
		if err := b.cur.Close(); err != nil {
			return err
		}
		b.cur, b.curName = nil, ""
	}
	return nil
}

// commit renames the shipped manifest into place — the snapshot's
// atomic commit point, after which Open sees a complete generation.
// The directory is fsynced before the rename, so the shipped files are
// durable ahead of the manifest naming them, and after, so the commit is.
func (b *bootstrapRx) commit() error {
	if b.cur != nil {
		return errors.New("repl: snapshot ended mid-file")
	}
	if b.manifest == "" {
		return errors.New("repl: snapshot ended without a manifest")
	}
	if err := persist.SyncDir(b.dir); err != nil {
		return err
	}
	if err := os.Rename(b.manifest, filepath.Join(b.dir, persist.ManifestName)); err != nil {
		return err
	}
	b.manifest = ""
	return persist.SyncDir(b.dir)
}

// safeSnapName accepts only bare file names — no separators, no path
// tricks, bounded length — before any byte lands on the local disk.
func safeSnapName(name string) bool {
	if name == "" || len(name) > 255 || name == "." || name == ".." {
		return false
	}
	if strings.ContainsAny(name, "/\\") || strings.ContainsRune(name, 0) {
		return false
	}
	return name == filepath.Base(name)
}
