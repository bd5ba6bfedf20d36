package bench

// The serving-layer experiment: not a figure from the paper, but the
// end-to-end scenario the ROADMAP grows toward — full key→payload
// lookups through the table layer, batched, and sharded across cores.
// It quantifies what each serving-layer mechanism buys on top of the
// paper's bare bound-prediction microbenchmarks.

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/search"
	"repro/internal/serve"
)

func init() {
	register(Experiment{"serve", "serving layer: batched table lookups + sharded store sweep", serveSweep})
}

// ServeBatchSize is the default lookup batch size of the serving
// experiments: large enough to amortize the per-batch passes, small
// enough to be a realistic request size.
const ServeBatchSize = 256

// measureServeThroughput drives clients goroutines, each pushing the
// environment's lookup workload through st.GetBatch in batches of
// batch keys; the result is aggregate lookups per second.
func measureServeThroughput(e *Env, st *serve.Store, clients, batch int) float64 {
	if clients < 1 {
		clients = 1
	}
	if batch < 1 {
		batch = ServeBatchSize
	}
	run := func(tid int) {
		out := make([]uint64, batch)
		n := len(e.Lookups)
		off := (tid * 7919) % n // stagger clients across the workload
		for done := 0; done < n; {
			lo := (off + done) % n
			hi := lo + batch
			if hi > n {
				hi = n
			}
			chunk := e.Lookups[lo:hi]
			st.GetBatch(chunk, out[:len(chunk)])
			done += len(chunk)
		}
	}
	run(0) // warm caches and fault pages before timing
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < clients; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			run(tid)
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	return float64(clients*len(e.Lookups)) / elapsed
}

// serveSweep reports the serving-layer experiment: per-key vs batched
// table lookups per family, then sharded-store throughput across shard
// counts and client counts.
func serveSweep(r *Run) ([]report.Table, error) {
	e, err := r.env(dataset.Amzn)
	if err != nil {
		return nil, err
	}
	families := r.families(registry.ServeFamilies)

	batchedT := report.New("serve", "Serving layer: Table batched lookups (amzn, mid-sweep configs)").
		Dims("index").
		Float("per-key(ns)", "ns", 1).
		Float("batched(ns)", "ns", 1).
		Float("speedup", "x", 2)
	for _, family := range families {
		nb, ok := registry.Builder(family, e.Keys)
		if !ok {
			continue
		}
		idx, err := nb.Builder.Build(e.Keys)
		if err != nil {
			continue
		}
		t := e.Table(idx, search.BinarySearch)
		perKey := MeasureWarm(e, idx, search.BinarySearch)
		batched := measureWarmBatch(e, t, ServeBatchSize)
		if batched.checksum != perKey.checksum {
			return nil, fmt.Errorf("serve: %s batched checksum mismatch", family)
		}
		batchedT.Row([]string{family},
			perKey.NsPerLookup, batched.NsPerLookup, perKey.NsPerLookup/batched.NsPerLookup)
	}

	shardedT := report.New("serve", "Sharded store: concurrent GetBatch throughput (amzn)").
		Dims("index", "shards", "clients").
		Float("Mlookups/s", "M/s", 2)
	for _, family := range families {
		for _, shards := range []int{1, 4, 8} {
			// Full observability wiring at default sampling, so the
			// sweep measures the instrumented path, not a metrics-free
			// special case.
			reg := obs.NewRegistry()
			st, err := serve.New(e.Keys, e.Payloads, serve.Config{
				Shards: shards, Family: family,
				Metrics: reg,
				Journal: obs.NewJournal(obs.DefaultJournalCap),
				Tracer:  obs.NewTracer(reg, obs.DefaultTraceEvery),
			})
			if err != nil {
				return nil, err
			}
			for _, clients := range []int{1, 4, 8} {
				tp := measureServeThroughput(e, st, clients, ServeBatchSize)
				shardedT.Row([]string{family, strconv.Itoa(st.NumShards()), strconv.Itoa(clients)}, tp/1e6)
			}
			st.Close()
		}
	}
	return []report.Table{*batchedT, *shardedT}, nil
}
