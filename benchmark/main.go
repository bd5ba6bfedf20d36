// Command benchmark is the one benchmark of the whole stack: five named
// workloads, each checked against an oracle, reporting the end-to-end
// metrics of BENCHMARK.json from an untraced pass and the per-layer
// metrics from a separate traced pass and a ladder of layer boundaries.
// See README.md in this directory.
//
//	go run ./benchmark -seed 1                       all workloads, untraced
//	go run ./benchmark -seed 1 -trace 1              all workloads, then their traced pass and ladders: every metric
//	go run ./benchmark -workload wire-point -seed 7  one workload
//	go run ./benchmark -compare a.jsonl b.jsonl      judge b against a
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		workload = flags.String("workload", "", "run this workload only (default: all of BENCHMARK.json)")
		seed     = flags.Uint64("seed", 1, "derives the lookup streams and the op streams (the key sets are the benchmark's fixed data)")
		seconds  = flags.Float64("seconds", 0, "length of the measured pass (default: run_seconds of BENCHMARK.json)")
		trace    = flags.Int("trace", 0, "1: run the traced pass and the ladders after the untraced pass, and report the per-layer metrics")
		quick    = flags.Bool("quick", false, "smoke test: 20 000 keys, short ladders; not a measurement")
		out      = flags.String("out", "", "append every run's full result to this file, one JSON object per line")
		compare  = flags.Bool("compare", false, "judge the second result file against the first: -compare a.jsonl b.jsonl")
	)
	if err := flags.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if flags.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(stdout, sp, flags.Arg(0), flags.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}

	// The load is two workers and two connections whatever the host has,
	// and a host with one processor would serialise them.
	if runtime.NumCPU() < 2 && !*quick {
		return fail(fmt.Errorf("this host has %d processor; the benchmark needs at least 2 (two load workers beside the program under test)", runtime.NumCPU()))
	}
	c := &config{seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick, log: stderr}
	c.n = c.scale(2_000_000, 20_000)
	if c.seconds == 0 {
		c.seconds = float64(sp.RunSeconds)
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range sp.Workloads {
			names = append(names, w.Name)
		}
	} else if !sp.hasWorkload(*workload) {
		return fail(fmt.Errorf("workload %q is not declared in %s", *workload, specFile))
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	if err := os.Remove(filepath.Join(outDir, traceFile)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fail(err)
	}
	c.tmpRoot, err = os.MkdirTemp(outDir, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(c.tmpRoot)
	// An interrupt removes the run's directories too; the benchmark
	// starts no other process, so there is nothing else to stop. The
	// stack may be writing files at that moment, hence the second look.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sig)
		close(sig)
	}()
	go func() {
		if _, ok := <-sig; ok {
			for try := 0; try < 100; try++ {
				os.RemoveAll(c.tmpRoot)
				time.Sleep(20 * time.Millisecond)
				if _, err := os.Stat(c.tmpRoot); errors.Is(err, fs.ErrNotExist) {
					break
				}
			}
			os.Exit(130)
		}
	}()

	c.logf("benchmark: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d keys=%d seconds=%g trace=%v load=%d workers, %d connections",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), c.seed, c.n, c.seconds, c.trace, loadWorkers, connections)

	code := 0
	for _, name := range names {
		res, err := runWorkload(c, name)
		if err != nil {
			return fail(err)
		}
		// Every declared metric the run measured is printed; the result
		// line holds the list the driver asked for, whole.
		list := sp.EndToEnd
		if c.trace {
			list = sp.PerLayer
		}
		reported, err := res.declared(list, !c.trace)
		if err != nil {
			return fail(err)
		}
		for _, d := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
			v, measured := res.Metrics[d.Name]
			if !measured {
				continue // a layer this workload does not reach, or a pass this run did not make
			}
			note := ""
			if s, ok := res.Spread[d.Name]; ok {
				note = fmt.Sprintf("  # window spread %.1f%%", 100*s)
				if k, ok := res.Samples[d.Name]; ok {
					note += fmt.Sprintf(", %d samples per window at least", k)
				}
			}
			fmt.Fprintf(stdout, "%s %s %.6g %s%s\n", name, d.Name, v.Value, v.Unit, note)
		}
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				return fail(err)
			}
		}
		line, err := json.Marshal(driverLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: reported})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if res.Failed > 0 {
			fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed the oracle\n", name, res.Failed, res.Attempted)
			code = 1
		}
	}
	return code
}

func appendResult(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commit is the revision the binary was built from, when the build
// recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
