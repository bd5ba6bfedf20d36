package bench

// The tail-latency experiment: not a figure from the paper, whose
// serving numbers are means over tight loops, but the measurement the
// paper's serving claims actually need — per-operation latency
// *distributions*. A closed loop reports each family's capacity and
// latency under saturation; an open loop replays a fixed Poisson
// arrival schedule at a sweep of rates and measures every operation
// from its scheduled arrival, so queueing delay during compaction
// stalls is charged to the requests that suffered it (no coordinated
// omission). The output per family × workload × rate is a
// throughput-vs-tail curve. See DESIGN.md "Measurement".

import (
	"fmt"
	"runtime"

	"repro/internal/dataset"
	"repro/internal/load"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/serve"
)

func init() {
	register(Experiment{"serve-tail", "tail latency: closed vs open-loop (Poisson) load, p50..p99.9 per arrival rate", serveTailSweep})
}

// tailWorkloads lists the YCSB-style mixes of the tail experiment:
// A (50/50), B (95/5), and C (read-only), all zipfian.
func tailWorkloads() []mixedWorkload {
	return []mixedWorkload{
		{"A", 0.50, true},
		{"B", 0.95, true},
		{"C", 1.00, true},
	}
}

// tailRateFractions are the open-loop offered rates of the sweep, as
// fractions of the measured closed-loop capacity: comfortably below,
// at half, and near saturation — the knee of the latency curve.
var tailRateFractions = []float64{0.25, 0.5, 0.8}

// TailWorkers sizes the generator pool for the tail experiments (and
// the root BenchmarkServeTail): enough concurrency to saturate the
// store without drowning the machine in pure scheduler overhead.
func TailWorkers() int {
	w := runtime.NumCPU()
	if w > 8 {
		w = 8
	}
	return w
}

// serveTailSweep reports the tail-latency experiment: per index family
// and YCSB-style workload, a closed-loop saturation run (capacity and
// latency under full load) followed by open-loop runs at fractions of
// that capacity — the throughput-vs-p99 curve. Each run gets a fresh
// store so earlier writes and compactions cannot leak into later rows.
func serveTailSweep(r *Run) ([]report.Table, error) {
	o := r.options
	e, err := r.env(dataset.Amzn)
	if err != nil {
		return nil, err
	}
	ops := o.Lookups
	const shards = 4
	threshold := compactThreshold(ops, 64)
	workers := TailWorkers()

	t := report.New("serve-tail",
		fmt.Sprintf("Tail latency (amzn, mid-sweep configs, %d shards, %d workers, %d ops/run, compact threshold %d)",
			shards, workers, ops, threshold)).
		Dims("index", "wl", "loop").
		Float("rate(k/s)", "kops/s", 1).
		Float("kops/s", "kops/s", 1).
		Float("p50", "µs", 1).
		Float("p90", "µs", 1).
		Float("p99", "µs", 1).
		Float("p99.9", "µs", 1).
		Float("max", "µs", 1).
		Notef("open-loop latency is measured from each operation's scheduled Poisson arrival (coordinated-omission-free); latencies in µs").
		Notef("rate(k/s) is the offered open-loop arrival rate; 0 for the closed loop (saturation)")
	for _, family := range r.families(registry.WriteFamilies) {
		for _, wl := range tailWorkloads() {
			stream := wl.stream(e, ops, o.Seed)
			// One run on a fresh store, so earlier writes and compactions
			// cannot leak into later rows: saturated when rate is 0, else
			// on the Poisson schedule of that rate.
			run := func(loop string, rate float64) (*load.Result, error) {
				st, err := serve.New(e.Keys, e.Payloads, serve.Config{
					Shards: shards, Family: family, CompactThreshold: threshold,
				})
				if err != nil {
					return nil, err
				}
				defer st.Close()
				res := load.Run(load.InProcess(st), stream, load.Config{Workers: workers, Rate: rate, Seed: o.Seed})
				s := res.Latency().Summary()
				t.Row([]string{family, wl.name, loop},
					rate/1e3, res.Throughput()/1e3,
					float64(s.P50)/1e3, float64(s.P90)/1e3, float64(s.P99)/1e3,
					float64(s.P999)/1e3, float64(s.Max)/1e3)
				return res, nil
			}

			closed, err := run("closed", 0)
			if err != nil {
				return nil, err
			}
			for _, frac := range tailRateFractions {
				if rate := frac * closed.Throughput(); rate > 0 {
					if _, err := run(fmt.Sprintf("open%.0f%%", frac*100), rate); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return []report.Table{*t}, nil
}
