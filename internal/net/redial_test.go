package net

import (
	"errors"
	stdnet "net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
)

// redialStore builds a small store for the redial tests.
func redialStore(t *testing.T) (*serve.Store, []core.Key) {
	t.Helper()
	keys, err := dataset.Generate(dataset.Amzn, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	st, err := serve.New(keys, dataset.Payloads(len(keys), 7), serve.Config{Shards: 2, Family: "PGM"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st, keys
}

// TestClientRedial kills the server under a client, restarts it on the
// same address, and verifies the client reconnects on a later call
// instead of failing forever.
func TestClientRedial(t *testing.T) {
	st, keys := redialStore(t)
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := serveOn(ln, st, Config{})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Get(keys[0]); err != nil {
		t.Fatalf("get before restart: %v", err)
	}
	if !c.Healthy() {
		t.Fatal("client unhealthy while connected")
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The severed connection must surface as an error, not a hang.
	if _, _, err := c.Get(keys[0]); err == nil {
		t.Fatal("get on severed connection succeeded")
	}

	ln2, err := stdnet.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	srv2 := serveOn(ln2, st, Config{})
	defer srv2.Close()

	// Within a few backoff windows the client must reconnect and serve.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, found, err := c.Get(keys[1])
		if err == nil {
			if !found {
				t.Fatal("reconnected get lost the key")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never reconnected: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !c.Healthy() {
		t.Fatal("client unhealthy after reconnect")
	}

	// Close is still permanent: no redial after it.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(keys[0]); !errors.Is(err, errClosed) {
		t.Fatalf("get after Close: %v, want errClosed", err)
	}
}

// Healthy reports whether the client has a live connection. A false
// result is advisory: the next call will attempt a redial (unless the
// client is closed).
func (c *Client) Healthy() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failErr == nil && !c.closed
}
