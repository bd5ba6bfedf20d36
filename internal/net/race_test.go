package net

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/load"
	"repro/internal/serve"
)

// TestConcurrentMixedRace is the satellite -race workload: concurrent
// clients issue mixed reads and writes through the full network stack
// while the store runs background compactions (a low threshold keeps
// them firing) and a Snapshot races the traffic. It asserts only basic
// sanity — the point is the interleavings the race detector watches.
func TestConcurrentMixedRace(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 4000, 17)
	payloads := make([]uint64, len(keys))
	for i := range payloads {
		payloads[i] = uint64(i)*3 + 7
	}
	st, err := serve.New(keys, payloads, serve.Config{
		Shards: 4, Family: "PGM", CompactThreshold: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := Listen("127.0.0.1:0", st, Config{CoalesceWindow: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup

	// Closed-loop mixed traffic over one pool, open-loop over another,
	// concurrently: multiplexing, coalescing, and inline writes all
	// active at once.
	wg.Add(1)
	go func() {
		defer wg.Done()
		pool, err := DialPool(srv.Addr().String(), 4)
		if err != nil {
			t.Error(err)
			return
		}
		defer pool.Close()
		ops := load.MixedOps(keys, 6000, 0.5, 0, 11)
		res := load.Run(pool, ops, load.Config{Workers: 8})
		if res.Errors != 0 {
			t.Errorf("closed-loop errors under race: %d", res.Errors)
		}
		// Batch frames race the same writes and compactions.
		out := make([]uint64, 16)
		for i := 0; i+16 <= len(keys); i += 16 {
			if _, err := pool.TryGetBatch(keys[i:i+16], out); err != nil {
				t.Errorf("batch read under race: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		pool, err := DialPool(srv.Addr().String(), 2)
		if err != nil {
			t.Error(err)
			return
		}
		defer pool.Close()
		ops := load.MixedOps(keys, 3000, 0.8, 0, 13)
		res := load.Run(pool, ops, load.Config{Workers: 16, Rate: 20000})
		if res.Errors != 0 {
			t.Errorf("open-loop errors under race: %d", res.Errors)
		}
	}()

	// Snapshot races the traffic: the persistence path walks the same
	// shards the coalescer is batch-reading and the writes are mutating.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := st.Snapshot(t.TempDir()); err != nil {
			t.Errorf("snapshot during traffic: %v", err)
		}
	}()

	// A stats poller exercises the bypass path concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := Dial(srv.Addr().String())
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		for i := 0; i < 50; i++ {
			if _, err := c.stats(); err != nil {
				t.Errorf("stats poll: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	st.WaitCompactions()

	// Post-run sanity through a fresh connection.
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Get(keys[0]); err != nil {
		t.Fatal(err)
	}
}
