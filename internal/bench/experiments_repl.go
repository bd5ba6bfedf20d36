package bench

// The replication experiment: the serving story scaled out. A primary
// streams its writes to snapshot-bootstrapped followers, and the
// range-aware router fans reads across the topology — each server's
// coalescing window pins its read capacity, so R replicas buy close to
// R times the goodput by construction, and the experiment checks the
// work that buys it: every row enforces that the router spread the
// reads (no node offered much more than a 1/R share) and reports the
// busiest node's share. Every row also enforces the stream's
// conservation laws (applied <= acked <= streamed, router served+shed
// == offered). The second table kills the primary under the router and
// records the detect -> promote -> first-write-served timeline, the one
// timing here: a law about ordering, not a throughput figure. Timings
// of a routed topology are benchmark/'s routed-batch. See DESIGN.md
// "Replication".

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/load"
	"repro/internal/net"
	"repro/internal/repl"
	"repro/internal/report"
	"repro/internal/serve"
)

func init() {
	register(Experiment{"serve-repl", "replication: stream conservation laws, each node's share of routed reads vs replica count, and the failover timeline", serveReplSweep})
}

// Topology parameters. Every server runs pinnedNet, serve-obs's
// overload configuration; 12 shards divide evenly across 1, 2, and 3
// replicas so every node serves an equal key range.
const (
	replShards   = 12
	replWriteOps = 4000
	replWorkers  = 96

	// replShareSlack is how far above an equal 1/R share of the read
	// stream one node's offered load may sit: uniform keys over equal
	// shard bands land within a few percent of equal.
	replShareSlack = 0.15
)

// replReplicaCounts are the topology sizes of the sweep.
var replReplicaCounts = []int{1, 2, 3}

// replNode is one serving endpoint of the benchmark topology.
type replNode struct {
	f   *repl.Follower
	srv *net.Server
}

// serveReplSweep builds, per replica count, a fresh primary plus
// followers, streams a write burst through, settles, then saturates
// the router with closed-loop point reads.
func serveReplSweep(r *Run) ([]report.Table, error) {
	o := r.options
	e, err := r.env(dataset.Amzn)
	if err != nil {
		return nil, err
	}
	ops := o.Lookups

	t := report.New("serve-repl",
		fmt.Sprintf("Replicated serving (amzn, loopback, %d shards, %.0f lookups/s pinned per server, %d streamed writes, %d reads/run)",
			replShards, netCapacity(), replWriteOps, ops)).
		Dims("replicas").
		Float("snap", "B", 0).
		Float("streamed", "ops", 0).
		Float("acked", "ops", 0).
		Float("applied", "ops", 0).
		Float("busiest", "share", 3).
		Notef("snap is total shipped snapshot bytes; busiest is the largest share of the routed reads any one node was offered (accepted + shed)").
		Notef("laws enforced per row: applied <= acked <= streamed (exact equality after settle), router served+shed == offered exactly, no node offered more than 1/replicas + %.2f of the reads", replShareSlack)

	ft := report.New("serve-repl",
		"Failover under the router: primary killed mid-topology, most-caught-up follower promoted").
		Dims("phase").
		Float("time", "ms", 1).
		Notef("detect: kill to the router observing FailAfter missed polls and completing promotion; ready: kill to the first routed write served by the new primary")

	for _, replicas := range replReplicaCounts {
		if err := runReplTopology(r, e, replicas, ops, t, ft,
			replicas == replReplicaCounts[len(replReplicaCounts)-1]); err != nil {
			return nil, err
		}
	}
	return []report.Table{*t, *ft}, nil
}

// runReplTopology checks one replica count's laws and appends its row;
// when failover is set it also kills the primary afterwards and
// appends the failover timeline.
func runReplTopology(r *Run, e *Env, replicas, ops int, t, ft *report.Table, failover bool) error {
	o := r.options
	tmp, err := os.MkdirTemp("", "serve-repl-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	// Primary: volatile store, hooked log, repl listener, serving port.
	log := repl.NewLog(replShards)
	st, err := serve.New(e.Keys, e.Payloads, serve.Config{
		Shards: replShards, Family: "PGM", WriteHook: log.Hook(),
	})
	if err != nil {
		return err
	}
	defer st.Close()
	pri, err := repl.NewPrimary(st, log, "127.0.0.1:0", repl.PrimaryConfig{})
	if err != nil {
		return err
	}
	defer pri.Close()
	ncfg := pinnedNet()
	ncfg.ReplStat = pri.ReplStatHook()
	srv, err := net.Listen("127.0.0.1:0", st, ncfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	addrs, srvs := []string{srv.Addr().String()}, []*net.Server{srv}

	// Followers bootstrap by snapshot shipping.
	var nodes []*replNode
	defer func() {
		for _, n := range nodes {
			_ = n.srv.Close()
			n.f.Stop()
		}
	}()
	for i := 1; i < replicas; i++ {
		f, err := repl.StartFollower(repl.FollowerConfig{
			Dir:         fmt.Sprintf("%s/replica-%d", tmp, i),
			PrimaryAddr: pri.Addr().String(),
			Store:       serve.Config{Family: "PGM"},
		})
		if err != nil {
			return err
		}
		if err := f.WaitReady(60 * time.Second); err != nil {
			return err
		}
		ncfg := pinnedNet()
		ncfg.ReplStat, ncfg.Promote = f.ReplStatHook(), f.PromoteHook()
		fsrv, err := net.Listen("127.0.0.1:0", f.Store(), ncfg)
		if err != nil {
			f.Stop()
			return err
		}
		nodes = append(nodes, &replNode{f: f, srv: fsrv})
		addrs, srvs = append(addrs, fsrv.Addr().String()), append(srvs, fsrv)
	}

	// Write burst through the primary store: every op enters the
	// stream; then settle so the laws can be checked at a fixed point.
	writes := load.MixedOps(e.Keys, replWriteOps, 0, 0, o.Seed+uint64(replicas))
	for _, op := range writes {
		st.Put(op.Key, uint64(op.Key)^0xbeef)
	}
	want := log.Seqs()
	for _, n := range nodes {
		if err := n.f.WaitCaughtUp(want, 60*time.Second); err != nil {
			return err
		}
	}
	if err := pri.WaitAcked(60 * time.Second); err != nil {
		return err
	}

	ps := pri.Stats()
	var applied, acked uint64
	for _, n := range nodes {
		fs := n.f.Stats()
		applied += fs.AppliedOps
		if fs.AppliedOps > fs.AckedOps {
			return fmt.Errorf("serve-repl %d: follower applied %d > acked %d", replicas, fs.AppliedOps, fs.AckedOps)
		}
		acked += fs.AckedOps
	}
	if ps.AckedOps > ps.StreamedOps {
		return fmt.Errorf("serve-repl %d: acked %d > streamed %d", replicas, ps.AckedOps, ps.StreamedOps)
	}
	if replicas > 1 && ps.StreamedOps < uint64(replWriteOps) {
		return fmt.Errorf("serve-repl %d: only %d of %d writes streamed", replicas, ps.StreamedOps, replWriteOps)
	}

	// Read phase: closed-loop point lookups through the router.
	router, err := repl.NewRouter(addrs, 0, repl.RouterConfig{})
	if err != nil {
		return err
	}
	defer router.Close()
	stream := load.MixedOps(e.Keys, ops, 1, 0, o.Seed)
	res := load.Run(router, stream, load.Config{Workers: replWorkers})
	if res.Errors > 0 {
		return fmt.Errorf("serve-repl %d: %d hard errors", replicas, res.Errors)
	}
	if res.Ops()+res.Sheds != len(stream) {
		return fmt.Errorf("serve-repl %d: %d ops + %d sheds != %d offered", replicas, res.Ops(), res.Sheds, len(stream))
	}
	// Every op was served or shed (no hard errors above), and each
	// counts exactly once at the router.
	rs := router.Stats()
	if rs.Served+rs.Shed != uint64(len(stream)) {
		return fmt.Errorf("serve-repl %d: router served %d + shed %d != offered %d", replicas, rs.Served, rs.Shed, len(stream))
	}
	// What buys the speedup, in its work form: the router spreads the
	// read stream, so no server is offered much more than an equal share
	// of it.
	limit := 1/float64(replicas) + replShareSlack
	var busiest float64
	for i, s := range srvs {
		ss := s.Stats()
		share := float64(ss.Accepted+ss.Shed) / float64(len(stream))
		if share > limit {
			return fmt.Errorf("serve-repl %d: node %d was offered %d of %d reads, more than a %.2f share",
				replicas, i, ss.Accepted+ss.Shed, len(stream), limit)
		}
		busiest = max(busiest, share)
	}

	t.Row([]string{fmt.Sprintf("%d", replicas)},
		float64(ps.SnapBytes),
		float64(ps.StreamedOps), float64(ps.AckedOps), float64(applied),
		busiest)

	if failover && replicas >= 2 {
		return runReplFailover(st, pri, srv, router, e.Keys, ft)
	}
	return nil
}

// runReplFailover kills the primary under the router and measures the
// timeline: detect+promote (router Failovers counter moves), then
// ready (first routed write served by the new primary).
func runReplFailover(st *serve.Store, pri *repl.Primary, srv *net.Server, router *repl.Router, keys []core.Key, ft *report.Table) error {
	// Quiesce: the goodput phase issued no writes, so followers are
	// already settled; kill the primary node wholesale.
	t0 := time.Now()
	_ = srv.Close()
	_ = pri.Close()
	st.Close()

	deadline := time.Now().Add(60 * time.Second)
	for router.Stats().Failovers == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("serve-repl failover: router never promoted")
		}
		time.Sleep(time.Millisecond)
	}
	detectMs := float64(time.Since(t0).Nanoseconds()) / 1e6

	var readyMs float64
	probe := keys[len(keys)/2]
	for {
		if err := router.TryPut(probe, 0xfeedface); err == nil {
			readyMs = float64(time.Since(t0).Nanoseconds()) / 1e6
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("serve-repl failover: no write served after promotion")
		}
		time.Sleep(time.Millisecond)
	}
	// Post-failover smoke: read-your-write through the router.
	if v, ok, err := router.TryGet(probe); err != nil || !ok || v != 0xfeedface {
		return fmt.Errorf("serve-repl failover: read-your-write got (%d,%v,%v)", v, ok, err)
	}

	ft.Row([]string{"detect+promote"}, detectMs)
	ft.Row([]string{"ready"}, readyMs)
	return nil
}
