package bench

// The network serving experiment: the paper's serving story measured
// through a socket instead of a function call. A net.Server fronts the
// store over loopback with the coalescing window pinning its service
// capacity (BatchCap keys per CoalesceWindow), and the open-loop
// generator offers fractions of that capacity from below to well past
// it. The interesting region is past 1.0x: a server with admission
// control sheds the excess with explicit RetryLater responses and keeps
// the latency of what it accepts bounded — goodput plateaus at capacity
// instead of collapsing under its own queue. See DESIGN.md "Network
// serving".

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/load"
	"repro/internal/net"
	"repro/internal/report"
	"repro/internal/serve"
)

func init() {
	register(Experiment{"serve-net", "network serving: goodput vs tail latency over loopback, coalescing + admission control (shed, don't collapse)", serveNetSweep})
}

// Serving parameters of the sweep. The coalescer's pacing makes
// capacity = netBatchCap/netWindow by construction — 16k lookups/s —
// machine-independent as long as the store can drain a 16-key batch in
// under a millisecond (every family can, by orders of magnitude). The
// small admission queue keeps accepted-request queueing delay within a
// few windows, so "bounded p99" is a property of the policy, not of
// how fast the box is.
const (
	netWindow     = time.Millisecond
	netBatchCap   = 16
	netMaxPending = 32
	netShards     = 4
	netConns      = 8
	netWorkers    = 96
)

// netRateFractions are the offered open-loop rates as fractions of the
// server's pinned capacity: two points below the knee, one just past
// it, and one at 2x — deep overload.
var netRateFractions = []float64{0.5, 0.8, 1.2, 2.0}

func netCapacity() float64 {
	return float64(netBatchCap) / netWindow.Seconds()
}

// pinnedNet is the server configuration that pins that capacity; every
// network experiment's overload laws are stated against it.
func pinnedNet() net.Config {
	return net.Config{CoalesceWindow: netWindow, BatchCap: netBatchCap, MaxPending: netMaxPending}
}

// netRow appends one sweep row: offered and achieved goodput, the
// server's shed count and mean coalesced batch size for the run, and
// the accepted-request latency tail (from scheduled arrival in the
// open loop).
func netRow(t *report.Table, family, loop string, offered float64, res *load.Result, s *net.Stats) {
	sum := res.Reads.Summary()
	batch := 0.0
	if s.Batches > 0 {
		batch = float64(s.BatchedKeys) / float64(s.Batches)
	}
	t.Row([]string{family, loop},
		offered/1e3, res.Throughput()/1e3,
		float64(s.Shed), batch,
		float64(sum.P50)/1e3, float64(sum.P99)/1e3, float64(sum.P999)/1e3)
}

// serveNetSweep reports the network serving experiment: per family, a
// closed-loop saturation run through the socket (which the pacing caps
// at the pinned capacity), then open-loop runs at netRateFractions of
// that capacity. Each row gets a fresh store and server, so sheds and
// histograms are per-run, not cumulative.
func serveNetSweep(r *Run) ([]report.Table, error) {
	o := r.options
	e, err := r.env(dataset.Amzn)
	if err != nil {
		return nil, err
	}
	ops := o.Lookups
	capacity := netCapacity()

	t := report.New("serve-net",
		fmt.Sprintf("Network serving (amzn, loopback, %d shards, capacity %.0f lookups/s = %d keys per %v window, admission queue %d, %d conns, %d workers, %d ops/run)",
			netShards, capacity, netBatchCap, netWindow, netMaxPending, netConns, netWorkers, ops)).
		Dims("index", "loop").
		Float("rate(k/s)", "kops/s", 1).
		Float("goodput", "kops/s", 1).
		Float("sheds", "", 0).
		Float("batch", "keys", 1).
		Float("p50", "µs", 1).
		Float("p99", "µs", 1).
		Float("p99.9", "µs", 1).
		Notef("goodput counts served requests only; sheds are explicit RetryLater refusals (server count for the run)").
		Notef("batch is the mean coalesced GetBatch size; open-loop latency runs from each operation's scheduled Poisson arrival").
		Notef("rate(k/s) is the offered arrival rate; 0 for the closed loop (saturation). past 1.0x capacity the server sheds and goodput plateaus")

	for _, family := range r.families([]string{"PGM"}) {
		run := func(loop string, rate float64) error {
			st, err := serve.New(e.Keys, e.Payloads, serve.Config{
				Shards: netShards, Family: family,
			})
			if err != nil {
				return err
			}
			defer st.Close()
			srv, err := net.Listen("127.0.0.1:0", st, pinnedNet())
			if err != nil {
				return err
			}
			defer srv.Close()
			pool, err := net.DialPool(srv.Addr().String(), netConns)
			if err != nil {
				return err
			}
			defer pool.Close()

			stream := load.MixedOps(e.Keys, ops, 1, 0, o.Seed)
			res := load.Run(pool, stream, load.Config{Workers: netWorkers, Rate: rate, Seed: o.Seed})
			if res.Errors > 0 {
				return fmt.Errorf("serve-net %s/%s: %d hard errors (sheds must be RetryLater)", family, loop, res.Errors)
			}
			if res.Ops()+res.Sheds != len(stream) {
				return fmt.Errorf("serve-net %s/%s: %d ops + %d sheds != %d offered (silent drop)",
					family, loop, res.Ops(), res.Sheds, len(stream))
			}
			s, err := pool.Stats()
			if err != nil {
				return err
			}
			netRow(t, family, loop, rate, res, s)
			return nil
		}

		if err := run("closed", 0); err != nil {
			return nil, err
		}
		for _, frac := range netRateFractions {
			if err := run(fmt.Sprintf("open%.0f%%", frac*100), frac*capacity); err != nil {
				return nil, err
			}
		}
	}
	return []report.Table{*t}, nil
}
