package net

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/binio"
	"repro/internal/core"
)

// Redial pacing: after a transport failure the client reconnects
// lazily on the next call, with exponential backoff between attempts
// so a dead server costs one fast dial failure per backoff window,
// never a tight dial loop. Attempts are bounded per call (exactly one)
// and rate-bounded overall; the client never gives up permanently —
// a server that comes back is rejoined within one backoff window.
const (
	redialMinBackoff = 5 * time.Millisecond
	redialMaxBackoff = 500 * time.Millisecond
	redialTimeout    = time.Second
)

// retryLaterError is the client-side face of a msgRetryLater refusal.
// It carries the Shed marker the load generators classify on, so shed
// operations are counted as sheds, not failures or served requests.
type retryLaterError struct{}

func (retryLaterError) Error() string { return "net: server overloaded, retry later" }
func (retryLaterError) Shed() bool    { return true }

// ErrRetryLater is returned when the server refused the request under
// admission control. The request was not executed; retry after
// backing off. errors.Is-comparable, and counted as shed by load.Run.
var ErrRetryLater error = retryLaterError{}

// errClosed is returned for calls on a closed or failed client.
var errClosed = errors.New("net: client closed")

// Client is one multiplexed connection to a Server: any number of
// goroutines may issue calls concurrently, each call is matched to its
// response by request id, and responses may return in any order (the
// server's coalescer reorders Gets relative to writes). On a transport
// failure every in-flight call fails with the underlying error; the
// next call redials the server with exponential backoff (see the
// redial constants), so a restarted or recovered server is rejoined
// transparently. Only Close is permanent.
type Client struct {
	addr string // redial target ("" disables reconnection)

	wmu  sync.Mutex // serializes frame writes
	wbuf binio.Writer

	mu            sync.Mutex
	nc            net.Conn
	waiters       map[uint64]chan *Msg
	failErr       error  // non-nil while the current connection is dead
	closed        bool   // Close called: never redial
	epoch         uint64 // connection generation; stale readers no-op
	redialAt      time.Time
	redialBackoff time.Duration
	readerDone    chan struct{} // current connection's reader

	nextID atomic.Uint64
}

// Dial connects to a Server at addr.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	c := &Client{addr: addr, nc: nc, waiters: map[uint64]chan *Msg{}, epoch: 1, readerDone: done}
	go c.reader(nc, 1, done)
	return c, nil
}

// Close tears the connection down permanently; in-flight calls fail
// with errClosed and no redial is ever attempted. The current reader
// goroutine is joined before Close returns.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	done := c.readerDone
	c.mu.Unlock()
	c.failConn(0, errClosed)
	<-done
	return nil
}

// failConn marks connection generation epoch dead (first error wins),
// severs its socket, and wakes every waiter. epoch 0 forces failure of
// the current connection (the Close path); a stale epoch — a reader
// whose connection was already replaced by a redial — is a no-op.
func (c *Client) failConn(epoch uint64, err error) {
	c.mu.Lock()
	if epoch != 0 && epoch != c.epoch {
		c.mu.Unlock()
		return
	}
	if c.failErr == nil {
		c.failErr = err
	}
	waiters := c.waiters
	c.waiters = map[uint64]chan *Msg{}
	nc := c.nc
	c.mu.Unlock()
	_ = nc.Close()
	for _, ch := range waiters {
		close(ch)
	}
}

// redialLocked (mu held) re-establishes the connection when allowed:
// never after Close, at most once per backoff window. On success the
// epoch advances and a fresh reader starts; on failure the window
// doubles (capped) and the dial error is returned.
func (c *Client) redialLocked() error {
	if c.closed {
		return errClosed
	}
	if c.addr == "" {
		return c.failErr
	}
	now := time.Now()
	if now.Before(c.redialAt) {
		return c.failErr // inside the backoff window: fail fast
	}
	backoff := c.redialBackoff
	if backoff < redialMinBackoff {
		backoff = redialMinBackoff
	} else if backoff < redialMaxBackoff {
		backoff *= 2
	}
	c.redialBackoff = backoff
	c.redialAt = now.Add(backoff)
	nc, err := net.DialTimeout("tcp", c.addr, redialTimeout)
	if err != nil {
		return fmt.Errorf("net: redial %s: %w", c.addr, err)
	}
	c.nc = nc
	c.failErr = nil
	c.epoch++
	c.redialBackoff = 0
	c.redialAt = time.Time{}
	c.waiters = map[uint64]chan *Msg{}
	done := make(chan struct{})
	c.readerDone = done
	go c.reader(nc, c.epoch, done)
	return nil
}

// reader dispatches one connection's response frames to their waiters
// until the stream ends. An unmatched response id (a waiter that
// already failed) is dropped; request ids are client-global, so a
// stale connection's responses can never match a newer call.
func (c *Client) reader(nc net.Conn, epoch uint64, done chan struct{}) {
	defer close(done)
	var scratch []byte
	for {
		m, sc, err := ReadMsg(nc, scratch)
		if err != nil {
			c.failConn(epoch, fmt.Errorf("net: connection lost: %w", err))
			return
		}
		scratch = sc
		c.mu.Lock()
		ch, ok := c.waiters[m.id]
		if ok {
			delete(c.waiters, m.id)
		}
		c.mu.Unlock()
		if ok {
			ch <- m // buffered (cap 1): never blocks
		}
	}
}

// call sends one request and waits for its response, redialing first
// when the previous connection failed.
func (c *Client) call(m *Msg) (*Msg, error) {
	m.id = c.nextID.Add(1)
	ch := make(chan *Msg, 1)
	c.mu.Lock()
	if c.failErr != nil || c.closed {
		if err := c.redialLocked(); err != nil {
			c.mu.Unlock()
			return nil, err
		}
	}
	c.waiters[m.id] = ch
	nc := c.nc
	epoch := c.epoch
	c.mu.Unlock()

	c.wmu.Lock()
	err := WriteMsg(nc, &c.wbuf, m)
	c.wmu.Unlock()
	if err != nil {
		c.failConn(epoch, fmt.Errorf("net: write failed: %w", err))
		return nil, err
	}

	resp, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.failErr
		c.mu.Unlock()
		if err == nil {
			// The connection died and was already replaced by a
			// concurrent redial; this call's response is gone either way.
			err = errors.New("net: connection reset during call")
		}
		return nil, err
	}
	switch resp.Type {
	case msgRetryLater:
		return nil, ErrRetryLater
	case msgError:
		return nil, fmt.Errorf("net: server: %s", resp.err)
	}
	return resp, nil
}

// Get returns the live payload for key, or found=false when absent.
func (c *Client) Get(key core.Key) (val uint64, found bool, err error) {
	resp, err := c.call(&Msg{Type: msgGet, key: key})
	if err != nil {
		return 0, false, err
	}
	if resp.Type != msgValue {
		return 0, false, fmt.Errorf("net: unexpected response type %d to Get", resp.Type)
	}
	return resp.Val, resp.Found, nil
}

// GetBatch fills out[i] with the payload of keys[i] (0 when absent)
// and returns the number found — the serve.Store batch contract, over
// the wire as one request frame.
func (c *Client) GetBatch(keys []core.Key, out []uint64) (int, error) {
	if len(out) < len(keys) {
		return 0, errors.New("net: GetBatch output shorter than key batch")
	}
	if len(keys) > maxBatch {
		return 0, fmt.Errorf("net: batch of %d keys exceeds limit %d", len(keys), maxBatch)
	}
	resp, err := c.call(&Msg{Type: msgGetBatch, keys: keys})
	if err != nil {
		return 0, err
	}
	if resp.Type != msgValueBatch || len(resp.vals) != len(keys) {
		return 0, fmt.Errorf("net: malformed batch response (type %d, %d vals for %d keys)",
			resp.Type, len(resp.vals), len(keys))
	}
	copy(out, resp.vals)
	return int(resp.foundN), nil
}

// Put inserts or updates key.
func (c *Client) Put(key core.Key, val uint64) error {
	return c.expectOK(&Msg{Type: msgPut, key: key, Val: val})
}

// Delete removes key (a no-op for absent keys, as in the store).
func (c *Client) Delete(key core.Key) error {
	return c.expectOK(&Msg{Type: msgDelete, key: key})
}

func (c *Client) expectOK(m *Msg) error {
	resp, err := c.call(m)
	if err != nil {
		return err
	}
	if resp.Type != msgOK {
		return fmt.Errorf("net: unexpected response type %d to write", resp.Type)
	}
	return nil
}

// stats fetches the server's live counters and latency histogram.
// Stats requests bypass the server's admission control, so monitoring
// works during overload.
func (c *Client) stats() (*Stats, error) {
	resp, err := c.call(&Msg{Type: msgStats})
	if err != nil {
		return nil, err
	}
	if resp.Type != msgStatsReply || resp.stats == nil {
		return nil, fmt.Errorf("net: unexpected response type %d to Stats", resp.Type)
	}
	return resp.stats, nil
}

// Topo fetches the server's shard separators — the routing table a
// range-aware router partitions key batches with. Like Stats, Topo
// bypasses admission control.
func (c *Client) Topo() ([]core.Key, error) {
	resp, err := c.call(&Msg{Type: msgTopo})
	if err != nil {
		return nil, err
	}
	if resp.Type != msgTopoReply {
		return nil, fmt.Errorf("net: unexpected response type %d to Topo", resp.Type)
	}
	return resp.keys, nil
}

// ReplStat fetches the server's replication status: role, epoch, the
// snapshot generation it was built from, and per-shard applied
// sequence numbers. Errors when the server has no replication layer.
func (c *Client) ReplStat() (role uint8, epoch, gen uint64, seqs []uint64, err error) {
	resp, err := c.call(&Msg{Type: msgReplStat})
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if resp.Type != msgReplStatReply {
		return 0, 0, 0, nil, fmt.Errorf("net: unexpected response type %d to ReplStat", resp.Type)
	}
	return resp.role, resp.Epoch, resp.Gen, resp.Seqs, nil
}

// Promote asks the server to become the primary (failover). Errors
// when the server is not promotable or refuses.
func (c *Client) Promote() error {
	return c.expectOK(&Msg{Type: msgPromote})
}

// Pool is a fixed set of client connections to one server, striped
// round-robin per call. It satisfies load.Target, so load.Run drives a
// remote store exactly as it drives an in-process one — with sheds
// surfacing as ErrRetryLater. Several servers are reached through
// repl.Router, not a Pool.
type Pool struct {
	cs   []*Client
	next atomic.Uint64
}

// DialPool opens n connections to addr. On any dial failure the
// already-opened connections are closed.
func DialPool(addr string, n int) (*Pool, error) {
	p := &Pool{cs: make([]*Client, n)}
	for i := range p.cs {
		c, err := Dial(addr)
		if err != nil {
			for _, prev := range p.cs[:i] {
				_ = prev.Close()
			}
			return nil, err
		}
		p.cs[i] = c
	}
	return p, nil
}

// Close closes every connection of the pool.
func (p *Pool) Close() error {
	var first error
	for _, c := range p.cs {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// pick returns the next connection round-robin. A connection whose
// transport failed redials itself inside its next call.
func (p *Pool) pick() *Client {
	return p.cs[p.next.Add(1)%uint64(len(p.cs))]
}

// Stats fetches the server's counters over one connection: every
// connection reaches the same server, so asking more than one would
// count it more than once.
func (p *Pool) Stats() (*Stats, error) { return p.pick().stats() }

// TryGet and TryPut implement load.Target; TryGetBatch is the batch
// read beside them.
func (p *Pool) TryGet(key core.Key) (uint64, bool, error) { return p.pick().Get(key) }

func (p *Pool) TryGetBatch(keys []core.Key, out []uint64) (int, error) {
	return p.pick().GetBatch(keys, out)
}

func (p *Pool) TryPut(key core.Key, val uint64) error { return p.pick().Put(key, val) }
