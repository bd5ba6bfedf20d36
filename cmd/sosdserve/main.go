// Command sosdserve runs the network serving front end: it builds a
// serve.Store over a generated dataset and listens for the internal/net
// frame protocol, with request coalescing and admission control. It is
// the long-running form of the stack serve-obs checks over loopback —
// point sosd's client library (or a second machine) at it to serve
// over a real network; benchmark/'s wire-point workload times the
// same stack in-process.
//
// Usage:
//
//	sosdserve [-addr host:port] [-dataset name] [-n keys] [-seed s]
//	          [-family f] [-shards k] [-window d] [-batchcap b]
//	          [-maxpending p] [-maxconns c]
//	          [-admin host:port] [-trace-every n] [-journal n]
//	          [-report d]
//	          [-repl host:port | -follow host:port -repldir dir]
//
// With -repl, the server is a replication primary: it opens a second
// listener on the given address that ships snapshots to subscribing
// followers and streams every write applied through the serving port.
// With -follow, the server is a read-only follower instead: it
// bootstraps its store from the primary's replication address (no
// dataset is generated), keeps it current from the WAL stream, and
// serves reads; writes through the serving port are refused until the
// node is promoted (see cmd/sosdrouter). -repldir is the follower's
// durable state directory — restarting with the same directory resumes
// from the last committed position instead of re-bootstrapping.
//
// With -admin, a second HTTP listener serves live observability:
// Prometheus text at /metrics, the flattened registry as JSON at
// /vars, the flush/compaction journal at /events, and the runtime
// profiles under /debug/pprof/. With -report, a one-line self-report
// (throughput, shed, read amp, compactions) prints to stderr at the
// given interval.
//
// The server runs until SIGINT/SIGTERM, then shuts down gracefully and
// prints its final stats (accepted, shed, coalescing, latency tail) to
// stderr. The coalescer's pacing pins service capacity at
// batchcap/window lookups per second; requests past that are refused
// with RetryLater rather than queued without bound.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/repl"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	dsName := flag.String("dataset", "amzn", "dataset to generate (amzn, face, osm, wiki)")
	n := flag.Int("n", 200_000, "dataset size in keys")
	seed := flag.Uint64("seed", bench.DefaultSeed, "dataset seed")
	family := flag.String("family", "PGM", "index family for the store's shards")
	shards := flag.Int("shards", 4, "shard count")
	window := flag.Duration("window", net.DefaultCoalesceWindow, "coalescing window (pins capacity with -batchcap)")
	batchCap := flag.Int("batchcap", net.DefaultBatchCap, "max point lookups coalesced into one store batch")
	maxPending := flag.Int("maxpending", net.DefaultMaxPending, "admission limit on in-flight requests; excess is shed")
	maxConns := flag.Int("maxconns", net.DefaultMaxConns, "connection limit; excess accepts are refused")
	adminAddr := flag.String("admin", "", "admin HTTP listener for /metrics, /vars, /events, /debug/pprof (empty = off)")
	traceEvery := flag.Int("trace-every", obs.DefaultTraceEvery, "sample 1-in-N requests for phase tracing (rounded up to a power of two)")
	journalCap := flag.Int("journal", obs.DefaultJournalCap, "flush/compaction journal capacity (events)")
	report := flag.Duration("report", 0, "self-report interval on stderr (0 = off)")
	replAddr := flag.String("repl", "", "replication listener address: act as primary, stream writes to followers (empty = off)")
	followAddr := flag.String("follow", "", "primary's replication address: act as read-only follower (empty = off)")
	replDir := flag.String("repldir", "", "follower state directory (required with -follow)")
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *replAddr != "" && *followAddr != "" {
		fatal(fmt.Errorf("-repl and -follow are mutually exclusive"))
	}
	if *followAddr != "" && *replDir == "" {
		fatal(fmt.Errorf("-follow requires -repldir"))
	}

	if !registry.Has(*family) {
		fatal(fmt.Errorf("unknown family %q (known: %v)", *family, registry.Families()))
	}

	reg := obs.NewRegistry()
	journal := obs.NewJournal(*journalCap)
	tracer := obs.NewTracer(reg, *traceEvery)
	obs.RegisterPersist(reg)

	netCfg := net.Config{
		CoalesceWindow: *window,
		BatchCap:       *batchCap,
		MaxPending:     *maxPending,
		MaxConns:       *maxConns,
		Metrics:        reg,
		Tracer:         tracer,
	}

	var (
		st       *serve.Store
		pri      *repl.Primary
		fol      *repl.Follower
		checksum uint64
	)
	if *followAddr != "" {
		// Follower: the store comes from the primary's snapshot, not a
		// generated dataset.
		fmt.Fprintf(os.Stderr, "bootstrapping from primary %s into %s...\n", *followAddr, *replDir)
		var err error
		fol, err = repl.StartFollower(repl.FollowerConfig{
			Dir: *replDir, PrimaryAddr: *followAddr,
			Store: serve.Config{Family: *family, Metrics: reg, Journal: journal, Tracer: tracer},
		})
		if err != nil {
			fatal(err)
		}
		defer fol.Stop()
		if err := fol.WaitReady(5 * time.Minute); err != nil {
			fatal(err)
		}
		st = fol.Store()
		netCfg.ReplStat = fol.ReplStatHook()
		netCfg.Promote = fol.PromoteHook()
	} else {
		fmt.Fprintf(os.Stderr, "generating %s, %d keys (seed %d)...\n", *dsName, *n, *seed)
		keys, err := dataset.Generate(dataset.Name(*dsName), *n, *seed)
		if err != nil {
			fatal(err)
		}
		checksum = dataset.Checksum(keys)
		cfg := serve.Config{
			Shards: *shards, Family: *family,
			Metrics: reg, Journal: journal, Tracer: tracer,
		}
		var log *repl.Log
		if *replAddr != "" {
			log = repl.NewLog(*shards)
			cfg.WriteHook = log.Hook()
		}
		st, err = serve.New(keys, dataset.Payloads(*n, *seed), cfg)
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		if *replAddr != "" {
			pri, err = repl.NewPrimary(st, log, *replAddr, repl.PrimaryConfig{})
			if err != nil {
				fatal(err)
			}
			defer pri.Close()
			netCfg.ReplStat = pri.ReplStatHook()
		}
	}

	srv, err := net.Listen(*addr, st, netCfg)
	if err != nil {
		fatal(err)
	}

	var admin *obs.AdminServer
	if *adminAddr != "" {
		admin, err = obs.ListenAdmin(*adminAddr, reg, journal)
		if err != nil {
			fatal(err)
		}
		defer admin.Close()
	}

	// Structured startup summary: everything needed to identify the
	// serving configuration from a log line. The checksum identifies
	// the dataset, the config ID the built index (family + tuned
	// parameters), and the policy triple the compaction behaviour.
	threshold, maxRuns, ampBound := st.Policy()
	capacity := float64(*batchCap) / window.Seconds()
	role := "standalone"
	switch {
	case pri != nil:
		role = "primary repl=" + pri.Addr().String()
	case fol != nil:
		role = "follower primary=" + *followAddr + " dir=" + *replDir
	}
	fmt.Fprintf(os.Stderr,
		"sosdserve up addr=%s role=%s dataset=%s n=%d seed=%d checksum=%016x config=%s shards=%d "+
			"policy=threshold:%d,maxruns:%d,ampbound:%g "+
			"window=%v batchcap=%d capacity=%.0f/s admission=%d conns=%d admin=%s trace=1/%d\n",
		srv.Addr(), role, *dsName, *n, *seed, checksum, st.ConfigIDs()[0], st.NumShards(),
		threshold, maxRuns, ampBound,
		*window, *batchCap, capacity, *maxPending, *maxConns, adminURL(admin), *traceEvery)

	stopReport := make(chan struct{})
	if *report > 0 {
		go selfReport(reg, st, *report, stopReport)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(stopReport)
	fmt.Fprintln(os.Stderr, "shutting down...")
	start := time.Now()
	if err := srv.Close(); err != nil {
		fatal(err)
	}
	s := srv.Stats()
	fmt.Fprintf(os.Stderr, "drained in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "accepted %d, shed %d, shed conns %d, dropped conns %d\n",
		s.Accepted, s.Shed, s.ShedConns, s.DroppedConns)
	if s.Batches > 0 {
		fmt.Fprintf(os.Stderr, "coalesced %d lookups into %d batches (mean %.1f keys), max queue depth %d\n",
			s.BatchedKeys, s.Batches, float64(s.BatchedKeys)/float64(s.Batches), s.MaxQueueDepth)
	}
	if s.Latency != nil && s.Latency.Count() > 0 {
		q := s.Latency.Summary()
		fmt.Fprintf(os.Stderr, "service time p50 %.1fµs p99 %.1fµs p99.9 %.1fµs max %.1fµs\n",
			float64(q.P50)/1e3, float64(q.P99)/1e3, float64(q.P999)/1e3, float64(q.Max)/1e3)
	}
	fmt.Fprintf(os.Stderr, "compactions %d (flushes %d, minor %d, major %d), read amp %.2f, journal %d events\n",
		st.Compactions(), st.Flushes(), st.MinorMerges(), st.MajorMerges(), st.ReadAmp(), journal.Total())
	if pri != nil {
		ps := pri.Stats()
		fmt.Fprintf(os.Stderr, "repl primary: %d followers, streamed %d, acked %d, snapshot %d bytes (%d bootstraps, %d resyncs)\n",
			ps.Followers, ps.StreamedOps, ps.AckedOps, ps.SnapBytes, ps.Bootstraps, ps.Resyncs)
	}
	if fol != nil {
		fs := fol.Stats()
		fmt.Fprintf(os.Stderr, "repl follower: applied %d, acked %d, lag %d, resyncs %d, state syncs %d\n",
			fs.AppliedOps, fs.AckedOps, fs.LagOps, fs.Resyncs, fs.StateSyncs)
	}
}

// selfReport prints a periodic one-line progress report from the live
// registry until stop closes. Rates are deltas over the interval.
func selfReport(reg *obs.Registry, st *serve.Store, every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	var lastAccepted, lastShed float64
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		accepted, _ := reg.Value("sosd_net_accepted_total")
		shed, _ := reg.Value("sosd_net_shed_total")
		depth, _ := reg.Value("sosd_net_queue_depth")
		p99, _ := reg.Value("sosd_net_latency_ns_p99")
		fmt.Fprintf(os.Stderr,
			"report accepted=%.0f (+%.0f) shed=%.0f (+%.0f) depth=%.0f p99=%.1fµs readamp=%.2f runs<=%d compactions=%d delta=%d\n",
			accepted, accepted-lastAccepted, shed, shed-lastShed, depth, p99/1e3,
			st.ReadAmp(), st.MaxRunCount(), st.Compactions(), st.DeltaLen())
		lastAccepted, lastShed = accepted, shed
	}
}

// adminURL renders the admin listener address for the startup line.
func adminURL(a *obs.AdminServer) string {
	if a == nil {
		return "off"
	}
	return "http://" + a.Addr().String()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sosdserve: %v\n", err)
	os.Exit(1)
}
