package net

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/load"
	"repro/internal/serve"
)

// The pool is the generators' network target.
var _ load.Target = (*Pool)(nil)

// newServed builds a store over n amzn keys and a server fronting it,
// both torn down with the test. Payloads are i*3+7 (never zero, except
// where a test writes zero on purpose).
func newServed(t testing.TB, n int, cfg Config) (*Server, *serve.Store, []core.Key, []uint64) {
	t.Helper()
	keys := dataset.MustGenerate(dataset.Amzn, n, 17)
	payloads := make([]uint64, len(keys))
	for i := range payloads {
		payloads[i] = uint64(i)*3 + 7
	}
	st, err := serve.New(keys, payloads, serve.Config{Shards: 4, Family: "PGM"})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", st, cfg)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
		st.Close()
	})
	return srv, st, keys, payloads
}

func dial(t testing.TB, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestEndToEnd smoke-tests every request type over a live connection.
func TestEndToEnd(t *testing.T) {
	srv, _, keys, payloads := newServed(t, 2000, Config{})
	c := dial(t, srv)

	for _, i := range []int{0, 1, 999, len(keys) - 1} {
		v, ok, err := c.Get(keys[i])
		if err != nil || !ok || v != payloads[i] {
			t.Fatalf("Get(keys[%d]) = %d,%v,%v want %d,true,nil", i, v, ok, err, payloads[i])
		}
	}
	if _, ok, err := c.Get(keys[0] - 1); err != nil || ok {
		t.Fatalf("absent Get: ok=%v err=%v", ok, err)
	}

	batch := []core.Key{keys[5], keys[0] - 1, keys[700], keys[5]}
	out := make([]uint64, len(batch))
	found, err := c.GetBatch(batch, out)
	if err != nil || found != 3 {
		t.Fatalf("GetBatch found=%d err=%v", found, err)
	}
	if out[0] != payloads[5] || out[1] != 0 || out[2] != payloads[700] || out[3] != payloads[5] {
		t.Fatalf("GetBatch values %v", out)
	}

	if err := c.Put(keys[9], 424242); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := c.Get(keys[9]); !ok || v != 424242 {
		t.Fatalf("Put not visible: %d,%v", v, ok)
	}
	if err := c.Delete(keys[9]); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get(keys[9]); ok {
		t.Fatal("Delete not visible")
	}

	s, err := c.stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Accepted == 0 || s.conns != 1 || s.Latency == nil || s.Latency.Count() == 0 {
		t.Fatalf("stats degenerate: %+v", s)
	}
	if s.Shed != 0 {
		t.Fatalf("unexpected sheds in healthy run: %+v", s)
	}
}

// TestZeroPayload pins the zero-value disambiguation: a present key
// whose payload is 0 must read found=true over the wire, both as a
// coalesced point Get and inside a batch's found count.
func TestZeroPayload(t *testing.T) {
	srv, _, keys, _ := newServed(t, 1000, Config{})
	c := dial(t, srv)
	if err := c.Put(keys[3], 0); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get(keys[3])
	if err != nil || !ok || v != 0 {
		t.Fatalf("zero-payload Get = %d,%v,%v want 0,true,nil", v, ok, err)
	}
	out := make([]uint64, 2)
	found, err := c.GetBatch([]core.Key{keys[3], keys[0] - 1}, out)
	if err != nil || found != 1 || out[0] != 0 {
		t.Fatalf("zero-payload GetBatch found=%d out=%v err=%v", found, out, err)
	}
}

// TestConformance is the satellite conformance suite: the network path
// (client → frames → server → coalescer/store) is held to an
// in-process serve.Store oracle over a randomized operation stream.
// Both stores are built from the same data; every operation is applied
// to both; every read must agree exactly — including keys absent,
// tombstoned, zero-valued, and hugging shard boundaries.
func TestConformance(t *testing.T) {
	srv, _, keys, _ := newServed(t, 4000, Config{})
	c := dial(t, srv)

	payloads := make([]uint64, len(keys))
	for i := range payloads {
		payloads[i] = uint64(i)*3 + 7
	}
	oracle, err := serve.New(keys, payloads, serve.Config{Shards: 4, Family: "BTree"})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	// Probe keys: uniform members, absent keys (midpoints and out of
	// range), and every shard-boundary neighborhood. The oracle store
	// has the same shard count, so its separators sit at the same
	// near-equal cuts.
	rng := rand.New(rand.NewSource(42))
	var probes []core.Key
	for i := 0; i < 4; i++ {
		b := i * len(keys) / 4
		for _, off := range []int{-1, 0, 1} {
			if j := b + off; j >= 0 && j < len(keys) {
				probes = append(probes, keys[j], keys[j]+1)
			}
		}
	}
	probes = append(probes, keys[0]-1, keys[len(keys)-1]+1)

	get := func(k core.Key) {
		t.Helper()
		gv, gok, gerr := c.Get(k)
		if gerr != nil {
			t.Fatal(gerr)
		}
		wv, wok := oracle.Get(k)
		if gv != wv || gok != wok {
			t.Fatalf("Get(%d): net %d,%v oracle %d,%v", k, gv, gok, wv, wok)
		}
	}

	for step := 0; step < 3000; step++ {
		var k core.Key
		switch rng.Intn(4) {
		case 0: // uniform member
			k = keys[rng.Intn(len(keys))]
		case 1: // boundary/absent probe
			k = probes[rng.Intn(len(probes))]
		case 2: // random absent-ish
			k = core.Key(rng.Uint64())
		default: // fresh key near a member (insert territory)
			k = keys[rng.Intn(len(keys))] + core.Key(rng.Intn(3))
		}
		switch op := rng.Intn(10); {
		case op < 5:
			get(k)
		case op < 7:
			v := uint64(rng.Intn(5)) // zero payloads on purpose
			if err := c.Put(k, v); err != nil {
				t.Fatal(err)
			}
			oracle.Put(k, v)
		case op < 8:
			if err := c.Delete(k); err != nil {
				t.Fatal(err)
			}
			oracle.Delete(k)
		default: // batch read mixing member/absent/boundary keys
			n := 1 + rng.Intn(16)
			batch := make([]core.Key, n)
			for i := range batch {
				if rng.Intn(2) == 0 {
					batch[i] = keys[rng.Intn(len(keys))]
				} else {
					batch[i] = probes[rng.Intn(len(probes))]
				}
			}
			out := make([]uint64, n)
			gf, err := c.GetBatch(batch, out)
			if err != nil {
				t.Fatal(err)
			}
			wout := make([]uint64, n)
			wf := oracle.GetBatch(batch, wout)
			if gf != wf {
				t.Fatalf("step %d: GetBatch found %d, oracle %d", step, gf, wf)
			}
			for i := range out {
				if out[i] != wout[i] {
					t.Fatalf("step %d: GetBatch[%d] (key %d) = %d, oracle %d",
						step, i, batch[i], out[i], wout[i])
				}
			}
		}
	}
}

// TestConcurrentClientsOrdering checks multiplexing under concurrent
// callers on one shared client: interleaved responses must land on
// their own callers (request ids, not arrival order).
func TestConcurrentClientsOrdering(t *testing.T) {
	srv, _, keys, payloads := newServed(t, 4000, Config{})
	c := dial(t, srv)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				j := rng.Intn(len(keys))
				v, ok, err := c.Get(keys[j])
				if err != nil {
					done <- err
					return
				}
				if !ok || v != payloads[j] {
					done <- errMismatch(keys[j], v, ok)
					return
				}
			}
			done <- nil
		}(int64(w))
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func errMismatch(k core.Key, v uint64, ok bool) error {
	return &mismatchErr{k, v, ok}
}

type mismatchErr struct {
	k  core.Key
	v  uint64
	ok bool
}

func (e *mismatchErr) Error() string {
	return "mismatched response for key"
}

// TestCoalescing drives concurrent point Gets and asserts they were
// actually coalesced: fewer GetBatch rounds than lookups, with a mean
// batch size clearly above one.
func TestCoalescing(t *testing.T) {
	srv, _, keys, _ := newServed(t, 4000, Config{
		CoalesceWindow: 200 * time.Microsecond,
	})
	pool, err := DialPool(srv.Addr().String(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	ops := load.MixedOps(keys, 4000, 1, 0, 7)
	res := load.Run(pool, ops, load.Config{Workers: 8})
	if res.Ops() != len(ops) || res.Errors != 0 {
		t.Fatalf("run degenerate: %d ops, %d errors", res.Ops(), res.Errors)
	}
	s, err := pool.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.BatchedKeys == 0 || s.Batches == 0 {
		t.Fatalf("no coalescing: %+v", s)
	}
	mean := float64(s.BatchedKeys) / float64(s.Batches)
	if mean < 2 {
		t.Fatalf("mean coalesced batch %.2f < 2 (batches=%d keys=%d)", mean, s.Batches, s.BatchedKeys)
	}
}
