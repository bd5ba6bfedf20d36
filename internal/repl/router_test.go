package repl

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/net"
	"repro/internal/persist"
	"repro/internal/serve"
)

// topology is a full in-process cluster: primary (store + log + repl
// listener + serving port) and n followers (replica store + serving
// port), all on loopback.
type topology struct {
	st  *serve.Store
	log *Log
	p   *Primary
	srv *net.Server // primary's serving port

	fs    []*Follower
	fsrvs []*net.Server

	addrs []string // serving addresses: [0] primary, then followers
}

func buildTopology(t *testing.T, keys []core.Key, payloads []uint64, shards, followers int) *topology {
	t.Helper()
	tp := &topology{}
	tp.log = NewLog(shards)
	st, err := serve.New(keys, payloads, serve.Config{
		Shards: shards, Family: "PGM", WriteHook: tp.log.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tp.st = st
	tp.p, err = NewPrimary(st, tp.log, "127.0.0.1:0", PrimaryConfig{heartbeatEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	tp.srv, err = net.Listen("127.0.0.1:0", st, net.Config{ReplStat: tp.p.ReplStatHook()})
	if err != nil {
		t.Fatal(err)
	}
	tp.addrs = append(tp.addrs, tp.srv.Addr().String())

	for i := 0; i < followers; i++ {
		f, err := StartFollower(FollowerConfig{
			Dir: t.TempDir(), PrimaryAddr: tp.p.Addr().String(),
			Store: serve.Config{Family: "PGM"}, syncEvery: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.WaitReady(15 * time.Second); err != nil {
			t.Fatal(err)
		}
		fsrv, err := net.Listen("127.0.0.1:0", f.Store(), net.Config{
			ReplStat: f.ReplStatHook(), Promote: f.PromoteHook(),
		})
		if err != nil {
			t.Fatal(err)
		}
		tp.fs = append(tp.fs, f)
		tp.fsrvs = append(tp.fsrvs, fsrv)
		tp.addrs = append(tp.addrs, fsrv.Addr().String())
	}
	return tp
}

func (tp *topology) close() {
	for _, s := range tp.fsrvs {
		_ = s.Close()
	}
	for _, f := range tp.fs {
		f.Stop()
	}
	_ = tp.srv.Close()
	_ = tp.p.Close()
	tp.st.Close()
}

func (tp *topology) settle(t *testing.T) {
	t.Helper()
	want := tp.log.Seqs()
	for _, f := range tp.fs {
		if err := f.WaitCaughtUp(want, 15*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := tp.p.WaitAcked(15 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestRouterScatterGather drives reads and writes through a 3-replica
// router and checks routing correctness plus the conservation law.
func TestRouterScatterGather(t *testing.T) {
	keys, payloads := testKeys(t, 4000)
	tp := buildTopology(t, keys, payloads, 4, 2)
	defer tp.close()

	r, err := NewRouter(tp.addrs, 0, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Writes route to the primary and replicate.
	for i := 0; i < 300; i++ {
		if err := r.TryPut(keys[i], uint64(i)+3e9); err != nil {
			t.Fatal(err)
		}
	}
	tp.settle(t)

	// Point reads route by range; verify every updated key and a batch
	// spanning all shards (and so all replicas).
	offered := uint64(300)
	for i := 0; i < 300; i++ {
		v, ok, err := r.TryGet(keys[i])
		if err != nil {
			t.Fatal(err)
		}
		offered++
		if !ok || v != uint64(i)+3e9 {
			t.Fatalf("routed get %d: %d,%v", i, v, ok)
		}
	}
	batch := make([]core.Key, 0, 512)
	for i := 0; i < 512; i++ {
		batch = append(batch, keys[(i*7)%len(keys)])
	}
	out := make([]uint64, len(batch))
	n, err := r.TryGetBatch(batch, out)
	if err != nil {
		t.Fatal(err)
	}
	offered++
	if n != len(batch) {
		t.Fatalf("batch found %d of %d", n, len(batch))
	}
	for i, k := range batch {
		want := payloads[0]
		_ = want
		var exp uint64
		idx := (i * 7) % len(keys)
		if idx < 300 {
			exp = uint64(idx) + 3e9
		} else {
			exp = payloads[idx]
		}
		if out[i] != exp {
			t.Fatalf("batch[%d] key %d = %d, want %d", i, k, out[i], exp)
		}
	}

	st := r.Stats()
	if st.Served+st.Shed != offered {
		t.Fatalf("conservation: served %d + shed %d != offered %d", st.Served, st.Shed, offered)
	}
	if lag := r.Lag(); len(lag) == 0 {
		t.Fatal("router reports no lag entries")
	}
}

// TestRouterFailover kills the primary and verifies the router
// promotes the most-caught-up follower and keeps serving writes.
func TestRouterFailover(t *testing.T) {
	keys, payloads := testKeys(t, 3000)
	tp := buildTopology(t, keys, payloads, 4, 2)
	defer tp.close()

	r, err := NewRouter(tp.addrs, 0, RouterConfig{
		CheckEvery: 5 * time.Millisecond, FailAfter: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for i := 0; i < 500; i++ {
		if err := r.TryPut(keys[i], uint64(i)+9e9); err != nil {
			t.Fatal(err)
		}
	}
	tp.settle(t)

	// Kill the primary node wholesale: serving port, repl port, store.
	_ = tp.srv.Close()
	_ = tp.p.Close()
	tp.st.Close()

	deadline := time.Now().Add(15 * time.Second)
	for r.Stats().Failovers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("router never failed over")
		}
		time.Sleep(5 * time.Millisecond)
	}
	promoted := 0
	for i, f := range tp.fs {
		if f.promoted.Load() {
			promoted++
			if got := tp.addrs[i+1]; r.PrimaryAddr() != got {
				t.Fatalf("router primary %s, promoted node %s", r.PrimaryAddr(), got)
			}
		}
	}
	if promoted != 1 {
		t.Fatalf("%d followers promoted, want exactly 1", promoted)
	}

	// Writes and reads work against the new primary; the value written
	// before the failover survived the promotion.
	if err := r.TryPut(keys[600], 4242); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	if v, ok, err := r.TryGet(keys[600]); err != nil || !ok || v != 4242 {
		t.Fatalf("read-your-write after failover: %d,%v,%v", v, ok, err)
	}
	if v, ok, err := r.TryGet(keys[499]); err != nil || !ok || v != 499+9e9 {
		t.Fatalf("pre-failover write lost: %d,%v,%v", v, ok, err)
	}
}

// TestKillRecoveryRandomized is the acceptance scenario: a follower
// killed at random points mid-bootstrap and mid-stream — with small
// snapshot chunks, a tight REPLSTATE cadence, and compactions in
// flight on both sides — must recover on restart from its last
// committed state and converge to the map oracle, never diverge.
func TestKillRecoveryRandomized(t *testing.T) {
	keys, payloads := testKeys(t, 3000)
	log := NewLog(2)
	st, err := serve.New(keys, payloads, serve.Config{
		Shards: 2, Family: "PGM", WriteHook: log.Hook(),
		CompactThreshold: 64, // compactions constantly in flight
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p, err := NewPrimary(st, log, "127.0.0.1:0", PrimaryConfig{
		heartbeatEvery: 5 * time.Millisecond,
		chunkSize:      2048, // many chunks per bootstrap: kills land mid-ship
		streamBatch:    32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	oracle := map[core.Key]uint64{}
	var oracleMu sync.Mutex
	for i, k := range keys {
		oracle[k] = payloads[i]
	}

	// A background writer keeps the stream busy the whole time.
	stopWrites := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; ; i++ {
			select {
			case <-stopWrites:
				return
			default:
			}
			var k core.Key
			if rng.Intn(2) == 0 {
				k = keys[rng.Intn(len(keys))]
			} else {
				k = core.Key(rng.Uint64())
			}
			oracleMu.Lock()
			if rng.Intn(10) == 0 {
				st.Delete(k)
				delete(oracle, k)
			} else {
				v := rng.Uint64()
				st.Put(k, v)
				oracle[k] = v
			}
			oracleMu.Unlock()
			if i%64 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()

	dir := t.TempDir()
	cfg := FollowerConfig{
		Dir: dir, PrimaryAddr: p.Addr().String(),
		Store:     serve.Config{Family: "PGM", CompactThreshold: 64},
		syncEvery: 2, redialEvery: 5 * time.Millisecond,
	}
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 8; round++ {
		f, err := StartFollower(cfg)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Random kill delay: early rounds die mid-bootstrap, later ones
		// mid-stream.
		time.Sleep(time.Duration(rng.Intn(40)) * time.Millisecond)
		f.Kill()
	}

	// Final incarnation runs to completion.
	close(stopWrites)
	writerWG.Wait()
	f, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	if err := f.WaitReady(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := f.WaitCaughtUp(log.Seqs(), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := p.WaitAcked(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	st.WaitCompactions()
	f.Store().WaitCompactions()

	oracleMu.Lock()
	defer oracleMu.Unlock()
	oracleCheck(t, f.Store(), oracle)

	// And the primary itself matches the oracle (the stream's source of
	// truth was never corrupted by session churn).
	oracleCheck(t, st, oracle)
}

// TestRouterShardsAsStore holds the router's shard rule to the store's:
// every separator, one either side of it, 0 and the largest key are
// Put into a sharded store, whose write hook names the shard that took
// each, and shardOf over the store's separators must name the same.
func TestRouterShardsAsStore(t *testing.T) {
	keys, payloads := testKeys(t, 4000)
	var took []int
	st, err := serve.New(keys, payloads, serve.Config{
		Shards: 7, Family: "PGM", WriteHook: func(shard int, _ persist.Op) { took = append(took, shard) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	seps := st.Separators()
	probes := []core.Key{0, ^core.Key(0)}
	for _, s := range seps {
		probes = append(probes, s-1, s, s+1)
	}
	for _, x := range probes {
		took = took[:0]
		st.Put(x, 1)
		if len(took) != 1 || took[0] != shardOf(x, seps) {
			t.Fatalf("key %d: store wrote shard %v, router routes to %d over %v", x, took, shardOf(x, seps), seps)
		}
	}
}
