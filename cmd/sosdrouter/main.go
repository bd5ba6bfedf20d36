// Command sosdrouter fronts a replicated sosdserve topology with the
// range-aware scatter/gather router: reads fan out across the replicas
// by key range, writes go to the primary, and when the primary stops
// answering the router promotes the most-caught-up follower and keeps
// serving. Point it at one primary and any number of followers started
// with `sosdserve -repl` / `sosdserve -follow` (the -addrs list names
// their serving ports, not the replication port).
//
// Usage:
//
//	sosdrouter -addrs host:port,host:port,... [-primary i]
//	           [-check d] [-failafter n] [-report d]
//	           [-lookups m] [-dataset name] [-n keys] [-seed s]
//	           [-workers w]
//
// Without -lookups the router idles as a monitor, printing a
// lag-and-stats line every -report interval until SIGINT. With
// -lookups it additionally drives that many closed-loop point reads
// through the topology (the dataset flags must match the primary's) and
// prints goodput and the latency tail before exiting.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/load"
	"repro/internal/repl"
)

func main() {
	addrsFlag := flag.String("addrs", "", "comma-separated serving addresses: primary plus followers")
	primary := flag.Int("primary", 0, "index of the primary in -addrs")
	check := flag.Duration("check", repl.DefaultCheckEvery, "health-check interval")
	failAfter := flag.Int("failafter", repl.DefaultFailAfter, "consecutive failed checks before failover")
	report := flag.Duration("report", 2*time.Second, "monitor report interval on stderr")
	lookups := flag.Int("lookups", 0, "closed-loop point reads to drive through the router (0 = monitor only)")
	dsName := flag.String("dataset", "amzn", "dataset the primary was started with")
	n := flag.Int("n", 200_000, "dataset size the primary was started with")
	seed := flag.Uint64("seed", bench.DefaultSeed, "dataset seed the primary was started with")
	workers := flag.Int("workers", 64, "closed-loop worker count for -lookups")
	flag.Parse()
	if flag.NArg() != 0 || *addrsFlag == "" {
		flag.Usage()
		os.Exit(2)
	}

	var addrs []string
	for _, a := range strings.Split(*addrsFlag, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if *primary < 0 || *primary >= len(addrs) {
		fatal(fmt.Errorf("-primary %d out of range for %d addresses", *primary, len(addrs)))
	}

	r, err := repl.NewRouter(addrs, *primary, repl.RouterConfig{
		CheckEvery: *check, FailAfter: *failAfter,
		OnFailover: func(addr string) {
			fmt.Fprintf(os.Stderr, "failover: promoted %s\n", addr)
		},
	})
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	fmt.Fprintf(os.Stderr, "sosdrouter up: %d replicas, primary %s, check %v x%d\n",
		len(addrs), r.PrimaryAddr(), *check, *failAfter)

	if *lookups > 0 {
		fmt.Fprintf(os.Stderr, "generating %s, %d keys (seed %d)...\n", *dsName, *n, *seed)
		keys, err := dataset.Generate(dataset.Name(*dsName), *n, *seed)
		if err != nil {
			fatal(err)
		}
		stream := load.MixedOps(keys, *lookups, 1, 0, *seed)
		res := load.Run(r, stream, load.Config{Workers: *workers})
		q := res.Reads.Summary()
		fmt.Fprintf(os.Stderr,
			"served %d, shed %d, errors %d, goodput %.1f kops/s, p50 %.1fµs p99 %.1fµs p99.9 %.1fµs\n",
			res.Ops(), res.Sheds, res.Errors, res.Throughput()/1e3,
			float64(q.P50)/1e3, float64(q.P99)/1e3, float64(q.P999)/1e3)
		printStats(r)
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*report)
	defer tick.Stop()
	for {
		select {
		case <-sig:
			printStats(r)
			return
		case <-tick.C:
			printStats(r)
		}
	}
}

// printStats renders one monitor line: router counters plus per-node
// lag, sorted by address so the output is stable.
func printStats(r *repl.Router) {
	s := r.Stats()
	lag := r.Lag()
	nodes := make([]string, 0, len(lag))
	for a := range lag {
		nodes = append(nodes, a)
	}
	sort.Strings(nodes)
	var b strings.Builder
	for _, a := range nodes {
		fmt.Fprintf(&b, " %s=%d", a, lag[a])
	}
	fmt.Fprintf(os.Stderr, "router primary=%s served=%d shed=%d retries=%d failovers=%d lag(ops):%s\n",
		r.PrimaryAddr(), s.Served, s.Shed, s.Retries, s.Failovers, b.String())
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sosdrouter: %v\n", err)
	os.Exit(1)
}
