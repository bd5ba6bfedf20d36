package net

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/serve"
)

// waitGoroutines polls until the goroutine count drops back to the
// baseline or the deadline passes, absorbing scheduler stragglers —
// the same discipline as internal/load's generator leak test.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 64<<10)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerShutdownLeavesNoGoroutines is the satellite leak test: the
// goroutine count returns to its pre-server baseline after a graceful
// stop, after a stop with requests in flight, and after abrupt client
// disconnects — including a half-written frame.
func TestServerShutdownLeavesNoGoroutines(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 2000, 17)
	payloads := make([]uint64, len(keys))
	for i := range payloads {
		payloads[i] = uint64(i) + 1
	}
	st, err := serve.New(keys, payloads, serve.Config{Shards: 4, Family: "PGM"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.WaitCompactions()
	baseline := runtime.NumGoroutine()

	// Graceful: serve real traffic, close clients first, then server.
	srv, err := Listen("127.0.0.1:0", st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := DialPool(srv.Addr().String(), 4)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, 64)
	for i := 0; i < 256; i++ {
		if _, _, err := pool.TryGet(keys[i%len(keys)]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pool.TryGetBatch(keys[:64], out); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)

	// Mid-request abort: many async calls in flight while both sides
	// shut down, server first (so clients see severed connections).
	srv2, err := Listen("127.0.0.1:0", st, Config{CoalesceWindow: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, _, err := c.Get(keys[(w*100+i)%len(keys)]); err != nil {
					return // connection severed mid-run: expected
				}
			}
		}(w)
	}
	time.Sleep(2 * time.Millisecond) // let requests get in flight
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)

	// Abrupt client disconnects: full frame then slam, and a torn
	// half-frame. The server must reap both connections.
	srv3, err := Listen("127.0.0.1:0", st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", srv3.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c3 := &Client{nc: nc, waiters: map[uint64]chan *Msg{}, readerDone: make(chan struct{}), epoch: 1}
	go c3.reader(nc, 1, c3.readerDone)
	if _, _, err := c3.Get(keys[0]); err != nil {
		t.Fatal(err)
	}
	_ = nc.Close() // slam without protocol goodbye
	<-c3.readerDone

	nc2, err := net.Dial("tcp", srv3.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Half a frame: a length prefix promising more than is sent.
	if _, err := nc2.Write([]byte{0xff, 0x00, 0x00, 0x00, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	_ = nc2.Close()

	// Both connections must be reaped before the server closes.
	deadline := time.Now().Add(5 * time.Second)
	for srv3.Stats().conns != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server still reports %d conns after disconnects", srv3.Stats().conns)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := srv3.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)

	// The store is untouched by all that churn.
	if v, ok := st.Get(keys[1]); !ok || v != payloads[1] {
		t.Fatalf("store damaged after server churn: %d,%v", v, ok)
	}
}
