// Command sosd runs the benchmark experiments of "Benchmarking Learned
// Indexes" (Marcus et al., VLDB 2020). Each experiment regenerates one
// table or figure of the paper's evaluation; see DESIGN.md for the
// per-experiment index. The catalog is self-registering
// (internal/bench); `sosd -list` is derived from it, and the list
// below is checked against it by TestDocCommentMatchesCatalog.
//
// Usage:
//
//	sosd [-n keys] [-lookups m] [-seed s] [-format text|csv|json|jsonl]
//	     [-o file] [-families f1,f2] [-datasets d1,d2]
//	     [-cpuprofile file] [-memprofile file] [-admin host:port]
//	     <experiment> [...]
//
// Experiments: table1 fig6 fig7 fig8 table2 fig9 fig10 fig11 fig12
// regress fig13 fig14 fig15 fig16a fig16b fig16c fig17 persist
// serve-lsm serve-net serve-obs serve-repl
//
// Results go to stdout (or -o); progress and timing go to stderr, so
// the machine-readable formats emit pure data:
//
//	sosd -format json -o results.json fig7
//	sosd -format csv -families RMI,PGM fig13
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/report"
)

func main() {
	n := flag.Int("n", 200_000, "dataset size in keys (the paper uses 200M)")
	lookups := flag.Int("lookups", 20_000, "number of lookups per measurement")
	seed := flag.Uint64("seed", bench.DefaultSeed, "dataset/workload seed (0 is honored as seed 0)")
	format := flag.String("format", "text", "output format: text, csv, json, or jsonl")
	out := flag.String("o", "", "write results to this file instead of stdout")
	familiesFlag := flag.String("families", "", "comma-separated index families to restrict sweeps to")
	datasetsFlag := flag.String("datasets", "", "comma-separated datasets to restrict sweeps to")
	list := flag.Bool("list", false, "list experiments and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	adminAddr := flag.String("admin", "", "admin HTTP listener for /metrics and /debug/pprof during the run (empty = off)")
	flag.Usage = usage
	flag.Parse()

	if *list {
		listExperiments(os.Stdout)
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	o := bench.Options{N: *n, Lookups: *lookups, Seed: *seed}
	var err error
	if o.Families, err = splitNames(*familiesFlag, registry.Families(), "family"); err != nil {
		fatal(err)
	}
	var datasetNames []string
	for _, d := range dataset.All() {
		datasetNames = append(datasetNames, string(d))
	}
	if o.Datasets, err = splitNames(*datasetsFlag, datasetNames, "dataset"); err != nil {
		fatal(err)
	}

	exps, err := resolve(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sosd: %v\n", err)
		listExperiments(os.Stderr)
		os.Exit(2)
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	sink, err := newSink(*format, w)
	if err != nil {
		fatal(err)
	}

	// The admin listener gives a long experiment run live /debug/pprof
	// profiles plus the process-wide persist counters on /metrics.
	// Per-store series live in the stores experiments build and tear
	// down; sosdserve is the long-running scrape target for those.
	if *adminAddr != "" {
		reg := obs.NewRegistry()
		obs.RegisterPersist(reg)
		admin, err := obs.ListenAdmin(*adminAddr, reg, nil)
		if err != nil {
			fatal(err)
		}
		defer admin.Close()
		fmt.Fprintf(os.Stderr, "admin listener on http://%s\n", admin.Addr())
	}

	// Profiles cover the experiment loop only — build, flag parsing, and
	// sink setup are excluded so `go tool pprof` shows the hot path.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	run := bench.NewRun(o)
	for _, exp := range exps {
		start := time.Now()
		tables, err := exp.Run(run)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", exp.Name, err))
		}
		for i := range tables {
			if err := sink.Table(&tables[i]); err != nil {
				fatal(fmt.Errorf("%s: %w", exp.Name, err))
			}
		}
		// Progress and timing are operator feedback, never data: they go
		// to stderr so piped/machine-readable output stays pure.
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", exp.Name, time.Since(start).Round(time.Millisecond))
	}

	meta := report.NewMeta("sosd")
	meta.Options = map[string]any{
		"n": *n, "lookups": *lookups, "seed": *seed,
		"families": o.Families, "datasets": o.Datasets,
	}
	meta.Datasets = run.DatasetChecksums()
	if err := sink.Close(meta); err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %s results to %s\n", *format, *out)
	}
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
		fmt.Fprintf(os.Stderr, "wrote CPU profile to %s\n", *cpuprofile)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC() // settle live heap before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote heap profile to %s\n", *memprofile)
	}
}

// resolve maps CLI arguments to catalog entries, expanding "all".
func resolve(args []string) ([]bench.Experiment, error) {
	var exps []bench.Experiment
	for _, name := range args {
		if name == "all" {
			exps = append(exps, bench.Experiments()...)
			continue
		}
		exp, ok := bench.Find(name)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
		exps = append(exps, exp)
	}
	return exps, nil
}

// newSink picks the report sink for a -format value.
func newSink(format string, w io.Writer) (report.Sink, error) {
	switch format {
	case "text":
		return report.NewText(w), nil
	case "csv":
		return report.NewCSV(w), nil
	case "json":
		return report.NewJSON(w), nil
	case "jsonl":
		return report.NewJSONL(w), nil
	}
	return nil, fmt.Errorf("unknown format %q (want text, csv, json, or jsonl)", format)
}

// splitNames parses a comma-separated filter flag, rejecting names not
// in the known set so a typo fails loudly instead of producing an
// empty report.
func splitNames(s string, known []string, kind string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	var out []string
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, k := range known {
			if k == name {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown %s %q (known: %s)", kind, name, strings.Join(known, ", "))
		}
		out = append(out, name)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sosd: %v\n", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: sosd [-n keys] [-lookups m] [-seed s] [-format text|csv|json|jsonl] [-o file] [-families f1,f2] [-datasets d1,d2] [-cpuprofile file] [-memprofile file] <experiment>...\n\n")
	listExperiments(os.Stderr)
}

func listExperiments(w io.Writer) {
	fmt.Fprintln(w, "experiments:")
	for _, exp := range bench.Experiments() {
		fmt.Fprintf(w, "  %-12s %s\n", exp.Name, exp.Desc)
	}
	fmt.Fprintln(w, "  all          run everything")
}
