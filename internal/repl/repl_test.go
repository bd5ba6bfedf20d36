package repl

import (
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/load"
	"repro/internal/net"
	"repro/internal/persist"
	"repro/internal/serve"
)

var _ load.Target = (*Router)(nil)

// --- Log unit tests ---

func TestLogSeqAssignment(t *testing.T) {
	l := NewLog(2)
	if l.epoch == 0 {
		t.Fatal("zero epoch")
	}
	for i := 0; i < 10; i++ {
		if seq := l.append(0, persist.Op{Key: uint64(i)}); seq != uint64(i)+1 {
			t.Fatalf("shard 0 append %d got seq %d", i, seq)
		}
	}
	if seq := l.append(1, persist.Op{Key: 99}); seq != 1 {
		t.Fatalf("shard 1 first seq %d", seq)
	}
	want := []uint64{10, 1}
	for i, q := range l.Seqs() {
		if q != want[i] {
			t.Fatalf("Seqs()[%d] = %d, want %d", i, q, want[i])
		}
	}
	ops, ok := l.tailFrom(0, 4, 0)
	if !ok || len(ops) != 6 || ops[0].Key != 4 {
		t.Fatalf("tailFrom(0,4) = %d ops ok=%v", len(ops), ok)
	}
	ops, ok = l.tailFrom(0, 4, 2)
	if !ok || len(ops) != 2 || ops[1].Key != 5 {
		t.Fatalf("capped tailFrom = %d ops", len(ops))
	}
	if ops, ok := l.tailFrom(0, 10, 0); !ok || len(ops) != 0 {
		t.Fatalf("tailFrom at tip = %d ops ok=%v", len(ops), ok)
	}
}

func TestLogEviction(t *testing.T) {
	l := NewLog(1)
	l.ringCap = 8
	for i := 0; i < 20; i++ {
		l.append(0, persist.Op{Key: uint64(i)})
	}
	// Ring holds the last 8 ops at most; base advanced past seq 12.
	if _, ok := l.tailFrom(0, 0, 0); ok {
		t.Fatal("evicted position still readable")
	}
	ops, ok := l.tailFrom(0, 19, 0)
	if !ok || len(ops) != 1 || ops[0].Key != 19 {
		t.Fatalf("tip read after eviction: %d ops ok=%v", len(ops), ok)
	}
}

// TestLogRingMatchesAllOps: across many wraparounds, every tailFrom
// answers what a log of every op ever appended would — the ops after
// from, capped at maxOps — for exactly the last ringCap ops, and
// ok=false before them. The ring never reserves more than ringCap ops.
func TestLogRingMatchesAllOps(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for _, ringCap := range []int{1, 3, 8, 100, 1000} {
		const shards = 3
		l := NewLog(shards)
		l.ringCap = ringCap
		all := make([][]persist.Op, shards)
		for step := 0; step < 20*ringCap+200; step++ {
			shard := r.Intn(shards)
			op := persist.Op{Key: r.Uint64(), Val: uint64(step), Tomb: r.Intn(4) == 0}
			all[shard] = append(all[shard], op)
			if seq := l.append(shard, op); seq != uint64(len(all[shard])) {
				t.Fatalf("ring %d: append %d got seq %d, want %d", ringCap, step, seq, len(all[shard]))
			}
			s := &l.shards[shard]
			if held := min(len(all[shard]), ringCap); len(s.ops) != held || cap(s.ops) > ringCap {
				t.Fatalf("ring %d: holds %d ops in cap %d after %d appends, want %d in cap <= %d",
					ringCap, len(s.ops), cap(s.ops), len(all[shard]), held, ringCap)
			}
			q := r.Intn(shards)
			last := len(all[q])
			from := r.Intn(last + 1)
			maxOps := r.Intn(ringCap + 2)
			ops, ok := l.tailFrom(q, uint64(from), maxOps)
			if wantOK := from >= last-min(last, ringCap); ok != wantOK {
				t.Fatalf("ring %d: tailFrom(%d, %d) ok=%v with %d appended", ringCap, q, from, ok, last)
			}
			if !ok {
				continue
			}
			want := all[q][from:]
			if maxOps > 0 && len(want) > maxOps {
				want = want[:maxOps]
			}
			if !slices.Equal(ops, want) {
				t.Fatalf("ring %d: tailFrom(%d, %d, %d) = %v, want %v", ringCap, q, from, maxOps, ops, want)
			}
		}
	}
}

func TestLogNotify(t *testing.T) {
	l := NewLog(1)
	ch := l.updated()
	select {
	case <-ch:
		t.Fatal("notified before append")
	default:
	}
	l.append(0, persist.Op{Key: 1})
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("append did not notify")
	}
}

// --- State codec ---

func TestStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, err := readState(dir); !os.IsNotExist(err) {
		t.Fatalf("fresh dir: %v", err)
	}
	in := &state{epoch: 0xdeadbeef, gen: 7, seqs: []uint64{3, 0, 99}}
	if err := writeState(dir, in); err != nil {
		t.Fatal(err)
	}
	out, err := readState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if out.epoch != in.epoch || out.gen != in.gen || len(out.seqs) != 3 ||
		out.seqs[0] != 3 || out.seqs[2] != 99 {
		t.Fatalf("round trip: %+v", out)
	}
	path := dir + "/" + stateName
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The file is what the per-primitive writer of commit 5ff5fd2 wrote
	// for this state, byte for byte.
	const golden = "736f73645245503101000000efbeadde0000000007000000000000000300000003000000000000000000000000000000" +
		"6300000000000000cfba1042887bc6a5"
	if got := hex.EncodeToString(data); got != golden {
		t.Fatalf("REPLSTATE bytes changed:\n got %s\nwant %s", got, golden)
	}
	// A flipped byte is detected.
	data[len(data)-12] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readState(dir); err == nil {
		t.Fatal("corrupt state read back clean")
	}
}

// --- Topology helpers for the integration tests ---

// testPrimary is a volatile primary: store + hooked log + repl listener.
func testPrimary(t *testing.T, keys []core.Key, payloads []uint64, shards int) (*serve.Store, *Log, *Primary) {
	t.Helper()
	log := NewLog(shards)
	st, err := serve.New(keys, payloads, serve.Config{
		Shards: shards, Family: "PGM", WriteHook: log.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumShards() != shards {
		t.Fatalf("store clamped to %d shards", st.NumShards())
	}
	p, err := NewPrimary(st, log, "127.0.0.1:0", PrimaryConfig{heartbeatEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return st, log, p
}

func testKeys(t *testing.T, n int) ([]core.Key, []uint64) {
	t.Helper()
	keys, err := dataset.Generate(dataset.Amzn, n, 11)
	if err != nil {
		t.Fatal(err)
	}
	return keys, dataset.Payloads(len(keys), 11)
}

// oracleCheck compares the replica against a map oracle, via full scans.
func oracleCheck(t *testing.T, st *serve.Store, oracle map[core.Key]uint64) {
	t.Helper()
	got := map[core.Key]uint64{}
	st.Scan(0, ^core.Key(0), func(k core.Key, v uint64) bool {
		got[k] = v
		return true
	})
	if len(got) != len(oracle) {
		t.Fatalf("replica holds %d keys, oracle %d", len(got), len(oracle))
	}
	for k, v := range oracle {
		if gv, ok := got[k]; !ok || gv != v {
			t.Fatalf("key %d: replica %d,%v want %d", k, gv, ok, v)
		}
	}
}

// TestFollowerBootstrapAndStream is the happy path: bootstrap from a
// snapshot, apply live writes, verify laws and convergence.
func TestFollowerBootstrapAndStream(t *testing.T) {
	keys, payloads := testKeys(t, 4000)
	st, log, p := testPrimary(t, keys, payloads, 4)
	defer st.Close()
	defer p.Close()

	oracle := map[core.Key]uint64{}
	for i, k := range keys {
		oracle[k] = payloads[i]
	}

	f, err := StartFollower(FollowerConfig{
		Dir: t.TempDir(), PrimaryAddr: p.Addr().String(),
		Store: serve.Config{Family: "PGM"}, syncEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	if err := f.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Live writes after bootstrap: updates, inserts, deletes.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 3000; i++ {
		switch rng.Intn(3) {
		case 0:
			k := keys[rng.Intn(len(keys))]
			v := rng.Uint64()
			st.Put(k, v)
			oracle[k] = v
		case 1:
			k := core.Key(rng.Uint64())
			v := rng.Uint64()
			st.Put(k, v)
			oracle[k] = v
		case 2:
			k := keys[rng.Intn(len(keys))]
			st.Delete(k)
			delete(oracle, k)
		}
	}

	if err := f.WaitCaughtUp(log.Seqs(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := p.WaitAcked(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Conservation laws: applied <= acked <= streamed.
	ps, fs := p.Stats(), f.Stats()
	if ps.AckedOps > ps.StreamedOps {
		t.Fatalf("acked %d > streamed %d", ps.AckedOps, ps.StreamedOps)
	}
	if fs.AppliedOps > fs.AckedOps {
		t.Fatalf("applied %d > acked %d", fs.AppliedOps, fs.AckedOps)
	}
	if ps.Bootstraps != 1 {
		t.Fatalf("bootstraps = %d, want 1", ps.Bootstraps)
	}

	rst := f.Store()
	if !rst.ReadOnly() {
		t.Fatal("replica is not read-only")
	}
	oracleCheck(t, rst, oracle)

	// The read-only gate refuses direct writes but Apply got through.
	rst.Put(1, 1)
	oracleCheck(t, rst, oracle)
}

// TestFollowerWarmRestart stops a follower gracefully and restarts it:
// it must resume from REPLSTATE without a second bootstrap.
func TestFollowerWarmRestart(t *testing.T) {
	keys, payloads := testKeys(t, 2000)
	st, log, p := testPrimary(t, keys, payloads, 2)
	defer st.Close()
	defer p.Close()
	dir := t.TempDir()

	f, err := StartFollower(FollowerConfig{
		Dir: dir, PrimaryAddr: p.Addr().String(), Store: serve.Config{Family: "PGM"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		st.Put(keys[i], uint64(i)+1e9)
	}
	if err := f.WaitCaughtUp(log.Seqs(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	f.Stop()

	for i := 500; i < 1000; i++ {
		st.Put(keys[i], uint64(i)+1e9)
	}
	f2, err := StartFollower(FollowerConfig{
		Dir: dir, PrimaryAddr: p.Addr().String(), Store: serve.Config{Family: "PGM"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Stop()
	if err := f2.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := f2.WaitCaughtUp(log.Seqs(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if n := p.Stats().Bootstraps; n != 1 {
		t.Fatalf("warm restart re-bootstrapped (%d bootstraps)", n)
	}
	for i := 0; i < 1000; i++ {
		if v, ok := f2.Store().Get(keys[i]); !ok || v != uint64(i)+1e9 {
			t.Fatalf("key %d after warm restart: %d,%v", i, v, ok)
		}
	}
}

// TestFollowerResyncAfterEviction forces the follower off the ring; it
// must recover via a second bootstrap, not diverge or wedge.
func TestFollowerResyncAfterEviction(t *testing.T) {
	keys, payloads := testKeys(t, 2000)
	log := NewLog(2)
	log.ringCap = 256 // tiny ring: easy to fall off
	st, err := serve.New(keys, payloads, serve.Config{
		Shards: 2, Family: "PGM", WriteHook: log.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p, err := NewPrimary(st, log, "127.0.0.1:0", PrimaryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	dir := t.TempDir()

	f, err := StartFollower(FollowerConfig{
		Dir: dir, PrimaryAddr: p.Addr().String(), Store: serve.Config{Family: "PGM"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	f.Kill() // killed follower misses the next burst entirely

	oracle := map[core.Key]uint64{}
	for i, k := range keys {
		oracle[k] = payloads[i]
	}
	for i := 0; i < 2000; i++ { // far past the 256-op ring
		k := keys[i%len(keys)]
		st.Put(k, uint64(i)+5e9)
		oracle[k] = uint64(i) + 5e9
	}

	f2, err := StartFollower(FollowerConfig{
		Dir: dir, PrimaryAddr: p.Addr().String(), Store: serve.Config{Family: "PGM"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Stop()
	if err := f2.WaitCaughtUp(log.Seqs(), 15*time.Second); err != nil {
		t.Fatal(err)
	}
	oracleCheck(t, f2.Store(), oracle)
	if f2.Stats().Resyncs == 0 && p.Stats().Bootstraps < 2 {
		t.Fatal("eviction recovery did not resync")
	}
}

// TestResyncBehindServingPort resyncs a follower while a net.Server
// serves the store the follower had before: the resync closes that
// store, and the port must go on answering from it (stale reads, as
// DESIGN.md's "Known limitation" says) — a GetBatch frame, served on
// the connection's reader, and a point Get, served by the coalescer's
// GetBatchFound — instead of crashing the process.
func TestResyncBehindServingPort(t *testing.T) {
	keys, payloads := testKeys(t, 2000)
	log := NewLog(2)
	log.ringCap = 16 // tiny ring, one op a frame: writes outrun the stream
	st, err := serve.New(keys, payloads, serve.Config{
		Shards: 2, Family: "PGM", WriteHook: log.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p, err := NewPrimary(st, log, "127.0.0.1:0", PrimaryConfig{streamBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	f, err := StartFollower(FollowerConfig{
		Dir: t.TempDir(), PrimaryAddr: p.Addr().String(), Store: serve.Config{Family: "PGM"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	if err := f.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	served := f.Store()
	srv, err := net.Listen("127.0.0.1:0", served, net.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const written = 9e9 // every value the loop writes is at least this
	deadline := time.Now().Add(15 * time.Second)
	for i := 0; f.Stats().Resyncs < 2; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("no resync after %d puts", i)
		}
		st.Put(keys[i%len(keys)], uint64(i)+written)
	}
	if err := f.WaitCaughtUp(log.Seqs(), 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if f.Store() == served {
		t.Fatal("the resync kept the served store")
	}
	// The closed store's runs are the follower's bootstrap, served from
	// their mapped files; a collection now must not release them while
	// the port still answers from that store.
	runtime.GC()

	c, err := net.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stale := func(i int, v uint64) bool { return v == payloads[i] || v >= written }
	out := make([]uint64, 256)
	n, err := c.GetBatch(keys[:len(out)], out)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(out) {
		t.Fatalf("GetBatch after resync found %d of %d", n, len(out))
	}
	for i, v := range out {
		if !stale(i, v) {
			t.Fatalf("GetBatch after resync: key %d read %d, a value never written", i, v)
		}
	}
	if v, ok, err := c.Get(keys[1]); err != nil || !ok || !stale(1, v) {
		t.Fatalf("Get after resync: %d,%v,%v", v, ok, err)
	}
}

// TestBootstrapKeepsReplacedStoreMapping ships a snapshot into the
// directory an opened store maps, under the same file names, as a
// resync does: the replaced store, which a serving port may still
// read, must go on reading its own runs, not the shipped ones.
func TestBootstrapKeepsReplacedStoreMapping(t *testing.T) {
	keys, payloads := testKeys(t, 4000)
	dir, shipped := t.TempDir(), t.TempDir()
	newer := make([]uint64, len(payloads))
	for i, p := range payloads {
		newer[i] = p + 1
	}
	for _, snap := range []struct {
		dir      string
		payloads []uint64
	}{{dir, payloads}, {shipped, newer}} {
		st, err := serve.New(keys, snap.payloads, serve.Config{Shards: 2, Family: "PGM"})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Snapshot(snap.dir); err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
	old, err := serve.Open(dir, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	files, err := os.ReadDir(shipped)
	if err != nil {
		t.Fatal(err)
	}
	b := &bootstrapRx{dir: dir}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(shipped, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := b.chunk(&net.Msg{Type: net.MsgSnapFile, Name: f.Name(), Data: data, Found: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.commit(); err != nil {
		t.Fatal(err)
	}
	for _, x := range keys {
		if v, ok := old.Get(x); !ok || v != payloads[slices.Index(keys, x)] {
			t.Fatalf("replaced store read key %d as %d, %v; want its own %d", x, v, ok, payloads[slices.Index(keys, x)])
		}
	}
}

// TestPromotion turns a caught-up follower writable.
func TestPromotion(t *testing.T) {
	keys, payloads := testKeys(t, 2000)
	st, log, p := testPrimary(t, keys, payloads, 2)
	f, err := StartFollower(FollowerConfig{
		Dir: t.TempDir(), PrimaryAddr: p.Addr().String(), Store: serve.Config{Family: "PGM"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	if err := f.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		st.Put(keys[i], uint64(i)+7e9)
	}
	if err := f.WaitCaughtUp(log.Seqs(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	p.Close()
	st.Close()

	if err := f.promote(); err != nil {
		t.Fatal(err)
	}
	rst := f.Store()
	if rst.ReadOnly() {
		t.Fatal("promoted store still read-only")
	}
	rst.Put(keys[0], 123456)
	if v, ok := rst.Get(keys[0]); !ok || v != 123456 {
		t.Fatalf("write after promotion: %d,%v", v, ok)
	}
	if v, ok := rst.Get(keys[199]); !ok || v != 199+7e9 {
		t.Fatalf("replicated key after promotion: %d,%v", v, ok)
	}
}

// Kill simulates dying mid-work for recovery tests: the subscription
// stops and the store is closed WITHOUT a final WAL sync or REPLSTATE
// commit, so the durable position undercounts what was applied — the
// exact state a crash leaves. Restart with StartFollower on the same
// directory.
func (f *Follower) Kill() {
	f.halt()
	f.mu.Lock()
	st := f.st
	f.st = nil
	f.mu.Unlock()
	if st != nil {
		st.Close()
	}
}
