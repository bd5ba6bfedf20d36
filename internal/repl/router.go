package repl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/net"
	"repro/internal/search"
)

// Router defaults; see RouterConfig.
const (
	DefaultCheckEvery = 25 * time.Millisecond
	DefaultFailAfter  = 3
)

// RouterConfig configures a scatter/gather router.
type RouterConfig struct {
	// CheckEvery paces the monitor's liveness and lag polls. 0
	// defaults to DefaultCheckEvery.
	CheckEvery time.Duration

	// FailAfter is the consecutive failed primary polls before the
	// router declares the primary dead and promotes. 0 defaults to
	// DefaultFailAfter.
	FailAfter int

	// OnFailover, when non-nil, is called (from the monitor goroutine)
	// after a promotion completes, with the new primary's address.
	OnFailover func(addr string)
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.CheckEvery <= 0 {
		c.CheckEvery = DefaultCheckEvery
	}
	if c.FailAfter <= 0 {
		c.FailAfter = DefaultFailAfter
	}
	return c
}

// routerNode is one replica endpoint the router knows.
type routerNode struct {
	addr string
	c    *net.Client
	lag  atomic.Uint64 // ops behind the primary at the last poll
	dead atomic.Bool   // excluded from read routing after failover
}

// RouterStats is a snapshot of the router's routing accounting.
// Served+Shed == operations offered through the Try methods that
// reached a decision (errors after retry surface to the caller and
// count as neither).
type RouterStats struct {
	Served    uint64
	Shed      uint64
	Retries   uint64 // sub-calls re-routed to the primary after a replica error
	Failovers uint64
}

// Router fans reads across a replication topology and points writes at
// the primary. Reads route by key range: the store's shard separators
// (fetched once via msgTopo) partition a batch into per-shard
// sub-batches, and a contiguous band of shards maps to each replica —
// the same range-affinity the store's own shards use, so a replica
// serves a stable working set. A monitor goroutine polls replication
// status; when the primary stops answering it promotes the
// most-caught-up follower and re-points writes, and reads route around
// replicas marked dead. The Router satisfies load.Target, so load.Run
// drives a topology exactly as it drives one store.
type Router struct {
	cfg RouterConfig

	mu      sync.RWMutex
	nodes   []*routerNode
	primary int        // index into nodes
	seps    []core.Key // shard separators (seps[i] = first key of shard i)
	assign  []int      // shard -> node index

	served    atomic.Uint64
	shed      atomic.Uint64
	retries   atomic.Uint64
	failovers atomic.Uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewRouter dials every address (addrs[primaryIdx] is the current
// primary), fetches the topology from the primary, and starts the
// failover monitor.
func NewRouter(addrs []string, primaryIdx int, cfg RouterConfig) (*Router, error) {
	if len(addrs) == 0 {
		return nil, errors.New("repl: router needs at least one address")
	}
	if primaryIdx < 0 || primaryIdx >= len(addrs) {
		return nil, fmt.Errorf("repl: primary index %d out of %d addresses", primaryIdx, len(addrs))
	}
	r := &Router{cfg: cfg.withDefaults(), primary: primaryIdx, stop: make(chan struct{})}
	for _, addr := range addrs {
		c, err := net.Dial(addr)
		if err != nil {
			for _, n := range r.nodes {
				_ = n.c.Close()
			}
			return nil, err
		}
		r.nodes = append(r.nodes, &routerNode{addr: addr, c: c})
	}
	seps, err := r.nodes[primaryIdx].c.Topo()
	if err != nil {
		for _, n := range r.nodes {
			_ = n.c.Close()
		}
		return nil, fmt.Errorf("repl: fetch topology: %w", err)
	}
	r.seps = seps
	r.assign = assignShards(len(seps), len(r.nodes))
	r.wg.Add(1)
	go r.monitor()
	return r, nil
}

// assignShards maps nShards contiguous shard ranges onto nNodes
// replicas: node k serves shards [k*S/N, (k+1)*S/N).
func assignShards(nShards, nNodes int) []int {
	assign := make([]int, nShards)
	for i := range assign {
		assign[i] = i * nNodes / nShards
	}
	return assign
}

// Close stops the monitor and every client connection.
func (r *Router) Close() error {
	close(r.stop)
	r.wg.Wait()
	var first error
	for _, n := range r.nodes {
		if err := n.c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats snapshots the routing accounting.
func (r *Router) Stats() RouterStats {
	return RouterStats{
		Served:    r.served.Load(),
		Shed:      r.shed.Load(),
		Retries:   r.retries.Load(),
		Failovers: r.failovers.Load(),
	}
}

// PrimaryAddr is the address writes currently route to.
func (r *Router) PrimaryAddr() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.nodes[r.primary].addr
}

// Lag reports each replica's ops-behind-primary at the last poll,
// keyed by address.
func (r *Router) Lag() map[string]uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]uint64, len(r.nodes))
	for _, n := range r.nodes {
		if !n.dead.Load() {
			out[n.addr] = n.lag.Load()
		}
	}
	return out
}

// shardOf is serve.Store's routing rule: the shard whose separator is
// the greatest <= key (keys below every separator route to shard 0).
func shardOf(key core.Key, seps []core.Key) int {
	return search.PredBranchless(seps, key, 0, len(seps))
}

// nodeFor picks the serving node for a shard under the read lock:
// its assigned replica, or the primary when that replica is dead.
func (r *Router) nodeFor(shard int) (*routerNode, *routerNode) {
	n := r.nodes[r.assign[shard]]
	pri := r.nodes[r.primary]
	if n.dead.Load() {
		n = pri
	}
	return n, pri
}

// TryGet routes one point lookup to the key's range replica, retrying
// once against the primary if the replica fails outright.
func (r *Router) TryGet(key core.Key) (uint64, bool, error) {
	r.mu.RLock()
	n, pri := r.nodeFor(shardOf(key, r.seps))
	r.mu.RUnlock()
	v, ok, err := n.c.Get(key)
	if err != nil && !errors.Is(err, net.ErrRetryLater) && n != pri {
		r.retries.Add(1)
		v, ok, err = pri.c.Get(key)
	}
	return v, ok, r.account(err)
}

// TryGetBatch scatters the batch by key range into per-replica
// sub-batches, gathers concurrently, and returns the total found. A
// failed sub-batch retries once on the primary; a shed anywhere sheds
// the whole batch (the caller retries it whole).
func (r *Router) TryGetBatch(keys []core.Key, out []uint64) (int, error) {
	if len(out) < len(keys) {
		return 0, errors.New("repl: router batch output shorter than key batch")
	}
	r.mu.RLock()
	seps := r.seps
	type bucket struct {
		node *routerNode
		idx  []int
		keys []core.Key
	}
	buckets := map[*routerNode]*bucket{}
	pri := r.nodes[r.primary]
	for i, k := range keys {
		n, _ := r.nodeFor(shardOf(k, seps))
		b := buckets[n]
		if b == nil {
			b = &bucket{node: n}
			buckets[n] = b
		}
		b.idx = append(b.idx, i)
		b.keys = append(b.keys, k)
	}
	r.mu.RUnlock()

	var wg sync.WaitGroup
	errs := make([]error, 0, len(buckets))
	var errMu sync.Mutex
	found := atomic.Int64{}
	for _, b := range buckets {
		wg.Add(1)
		go func(b *bucket) {
			defer wg.Done()
			sub := make([]uint64, len(b.keys))
			n, err := b.node.c.GetBatch(b.keys, sub)
			if err != nil && !errors.Is(err, net.ErrRetryLater) && b.node != pri {
				r.retries.Add(1)
				n, err = pri.c.GetBatch(b.keys, sub)
			}
			if err != nil {
				errMu.Lock()
				errs = append(errs, err)
				errMu.Unlock()
				return
			}
			for j, i := range b.idx {
				out[i] = sub[j]
			}
			found.Add(int64(n))
		}(b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, r.account(err)
		}
	}
	return int(found.Load()), r.account(nil)
}

// TryPut routes a write to the primary, retrying once after a
// re-check (a failover may have moved the primary under the call).
func (r *Router) TryPut(key core.Key, val uint64) error {
	r.mu.RLock()
	pri := r.nodes[r.primary]
	r.mu.RUnlock()
	err := pri.c.Put(key, val)
	if err != nil && !errors.Is(err, net.ErrRetryLater) {
		r.mu.RLock()
		pri2 := r.nodes[r.primary]
		r.mu.RUnlock()
		if pri2 != pri {
			r.retries.Add(1)
			err = pri2.c.Put(key, val)
		}
	}
	return r.account(err)
}

// account classifies one routed operation for the conservation law:
// every offered op is served, shed, or an explicit error.
func (r *Router) account(err error) error {
	switch {
	case err == nil:
		r.served.Add(1)
		return nil
	case errors.Is(err, net.ErrRetryLater):
		r.shed.Add(1)
		return err
	default:
		return err
	}
}

// monitor polls the primary's replication status every CheckEvery;
// FailAfter consecutive failures trigger a failover. Follower polls
// ride along to keep the lag view fresh.
func (r *Router) monitor() {
	defer r.wg.Done()
	tick := time.NewTicker(r.cfg.CheckEvery)
	defer tick.Stop()
	failures := 0
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
		}
		r.mu.RLock()
		pri := r.nodes[r.primary]
		r.mu.RUnlock()
		_, _, _, priSeqs, err := pri.c.ReplStat()
		if err != nil {
			failures++
			if failures >= r.cfg.FailAfter {
				r.failover(pri)
				failures = 0
			}
			continue
		}
		failures = 0
		var priSum uint64
		for _, q := range priSeqs {
			priSum += q
		}
		r.mu.RLock()
		nodes := append([]*routerNode(nil), r.nodes...)
		r.mu.RUnlock()
		for _, n := range nodes {
			if n == pri || n.dead.Load() {
				continue
			}
			if _, _, _, seqs, err := n.c.ReplStat(); err == nil {
				var sum uint64
				for _, q := range seqs {
					sum += q
				}
				if priSum > sum {
					n.lag.Store(priSum - sum)
				} else {
					n.lag.Store(0)
				}
			}
		}
	}
}

// failover marks the dead primary, asks every reachable follower for
// its position, promotes the most-caught-up one, and re-points the
// topology at it. On total failure (no follower answered) the dead
// primary stays primary and the next poll cycle retries.
func (r *Router) failover(dead *routerNode) {
	dead.dead.Store(true)
	type cand struct {
		node *routerNode
		sum  uint64
	}
	var best *cand
	r.mu.RLock()
	nodes := append([]*routerNode(nil), r.nodes...)
	r.mu.RUnlock()
	for _, n := range nodes {
		if n == dead || n.dead.Load() {
			continue
		}
		_, _, _, seqs, err := n.c.ReplStat()
		if err != nil {
			continue
		}
		var sum uint64
		for _, q := range seqs {
			sum += q
		}
		if best == nil || sum > best.sum {
			best = &cand{node: n, sum: sum}
		}
	}
	if best == nil {
		dead.dead.Store(false) // nothing to promote; keep trying the old primary
		return
	}
	if err := best.node.c.Promote(); err != nil {
		return
	}
	r.mu.Lock()
	for i, n := range r.nodes {
		if n == best.node {
			r.primary = i
			break
		}
	}
	r.mu.Unlock()
	r.failovers.Add(1)
	if r.cfg.OnFailover != nil {
		r.cfg.OnFailover(best.node.addr)
	}
}
