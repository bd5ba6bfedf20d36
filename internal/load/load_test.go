package load

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
)

func testStore(t testing.TB, n int) (*serve.Store, []core.Key, []uint64) {
	t.Helper()
	keys := dataset.MustGenerate(dataset.Amzn, n, 17)
	payloads := make([]uint64, len(keys))
	for i := range payloads {
		payloads[i] = uint64(i)*3 + 7
	}
	st, err := serve.New(keys, payloads, serve.Config{Shards: 4, Family: "PGM"})
	if err != nil {
		t.Fatal(err)
	}
	return st, keys, payloads
}

// oracleChecksum computes the expected read checksum of a stream run
// serially against a map oracle: reads sum the current value of their
// key, writes update it. With concurrent workers only the read-only
// checksum is deterministic, so tests use readFrac=1 streams when
// asserting it.
func oracleChecksum(ops []Op, keys []core.Key, payloads []uint64) uint64 {
	var sum uint64
	for _, op := range ops {
		if op.Kind != get {
			continue
		}
		pos := core.LowerBound(keys, op.Key)
		if pos < len(keys) && keys[pos] == op.Key {
			sum += payloads[pos]
		}
	}
	return sum
}

// inProcess is the Target over a store called directly, whose
// operations cannot fail: a function call and a socket are driven by
// the same loop.
type inProcess struct{ st *serve.Store }

func (p inProcess) TryGet(key core.Key) (uint64, bool, error) {
	v, ok := p.st.Get(key)
	return v, ok, nil
}

func (p inProcess) TryPut(key core.Key, payload uint64) error {
	p.st.Put(key, payload)
	return nil
}

func TestMixedOpsShape(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 5000, 9)
	for _, readFrac := range []float64{0, 0.5, 0.95, 1} {
		ops := MixedOps(keys, 2000, readFrac, 0.99, 21)
		if len(ops) != 2000 {
			t.Fatalf("readFrac=%g: got %d ops", readFrac, len(ops))
		}
		reads := 0
		for _, op := range ops {
			if op.Kind == get {
				reads++
			}
		}
		want := float64(len(ops)) * readFrac
		if math.Abs(float64(reads)-want) > 1 {
			t.Fatalf("readFrac=%g: %d reads, want ~%.0f", readFrac, reads, want)
		}
	}
	// Deterministic in seed.
	a := MixedOps(keys, 500, 0.5, 0.99, 21)
	b := MixedOps(keys, 500, 0.5, 0.99, 21)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("MixedOps not deterministic in seed")
		}
	}
}

// TestRunClosedCorrectness checks a read-only closed-loop run end to
// end: every op completes, the checksum matches the serial oracle, and
// the read histogram holds exactly one sample per op.
func TestRunClosedCorrectness(t *testing.T) {
	st, keys, payloads := testStore(t, 4000)
	defer st.Close()
	ops := MixedOps(keys, 3000, 1, 0.99, 5)
	want := oracleChecksum(ops, keys, payloads)
	res := Run(inProcess{st}, ops, Config{Workers: 4})
	if res.Ops() != len(ops) || res.Writes.Count() != 0 {
		t.Fatalf("ops=%d writes=%d", res.Ops(), res.Writes.Count())
	}
	if res.checksum != want {
		t.Fatalf("checksum %d, want %d", res.checksum, want)
	}
	if res.Reads.Count() != uint64(len(ops)) {
		t.Fatalf("histogram holds %d samples, want %d", res.Reads.Count(), len(ops))
	}
	if res.Throughput() <= 0 || res.elapsed <= 0 {
		t.Fatal("no throughput/elapsed")
	}
}

// TestRunClosedMixedWrites drives a 50/50 mix and verifies the writes
// actually landed in the store, and that each histogram holds exactly
// the stream's operations of its kind — in both loops.
func TestRunClosedMixedWrites(t *testing.T) {
	st, keys, _ := testStore(t, 4000)
	defer st.Close()
	ops := MixedOps(keys, 2000, 0.5, 0, 5)
	var gets, puts uint64
	for _, op := range ops {
		if op.Kind == get {
			gets++
		} else {
			puts++
		}
	}
	if gets == 0 || puts == 0 {
		t.Fatalf("mix degenerate: gets=%d puts=%d", gets, puts)
	}
	for _, rate := range []float64{0, 2_000_000} {
		res := Run(inProcess{st}, ops, Config{Workers: 4, Rate: rate, Seed: 1})
		if res.Reads.Count() != gets || res.Writes.Count() != puts {
			t.Fatalf("rate=%g: histograms hold %d reads + %d writes, stream has %d + %d",
				rate, res.Reads.Count(), res.Writes.Count(), gets, puts)
		}
		if res.Latency().Count() != uint64(res.Ops()) || res.Ops() != len(ops) {
			t.Fatalf("rate=%g: latency %d, ops %d, stream %d", rate, res.Latency().Count(), res.Ops(), len(ops))
		}
	}
	for _, op := range ops {
		if op.Kind != Put {
			continue
		}
		if v, ok := st.Get(op.Key); !ok || v == 0 {
			t.Fatalf("written key %d not readable (v=%d ok=%v)", op.Key, v, ok)
		}
	}
}

// TestRunOpenSchedule checks the open loop's defining property at a
// modest rate: ops complete, latencies are measured from scheduled
// arrivals (so the run lasts at least the schedule's span), and the
// checksum matches.
func TestRunOpenSchedule(t *testing.T) {
	st, keys, payloads := testStore(t, 4000)
	defer st.Close()
	const n = 2000
	const rate = 50_000.0
	ops := MixedOps(keys, n, 1, 0, 5)
	want := oracleChecksum(ops, keys, payloads)
	res := Run(inProcess{st}, ops, Config{Workers: 4, Rate: rate, Seed: 11})
	if res.Ops() != n || res.checksum != want {
		t.Fatalf("ops=%d checksum=%d, want %d/%d", res.Ops(), res.checksum, n, want)
	}
	if res.Reads.Count() != uint64(n) {
		t.Fatalf("histogram holds %d samples, want %d", res.Reads.Count(), n)
	}
	// The schedule spans ~n/rate seconds; an open-loop run cannot finish
	// faster than its last scheduled arrival.
	minSpan := dataset.Arrivals(n, rate, 11)[n-1]
	if res.elapsed < minSpan {
		t.Fatalf("run finished in %v, before the last scheduled arrival %v", res.elapsed, minSpan)
	}
	// Achieved throughput approaches the offered rate when the store
	// keeps up (generous bound: within a factor of two).
	if res.Throughput() < rate/2 {
		t.Fatalf("achieved %.0f ops/s at offered %.0f", res.Throughput(), rate)
	}
}

// TestRunOpenMeasuresFromScheduledArrival pins the coordinated-omission
// property: latency runs from the *scheduled* arrival, so when the
// store cannot keep up, queueing delay accumulates across the backlog.
// One worker at an absurd offered rate puts the whole schedule in the
// past almost immediately — every operation is late, and the i-th
// operation's recorded latency includes the service time of all i-1
// operations queued ahead of it. A send-time (closed-loop) measurement
// would instead report every operation at its bare service time, so
// the signature of scheduled-arrival measurement is a max latency that
// dwarfs the median.
func TestRunOpenMeasuresFromScheduledArrival(t *testing.T) {
	st, keys, _ := testStore(t, 4000)
	defer st.Close()
	const n = 2000
	ops := MixedOps(keys, n, 1, 0, 5)

	// Closed-loop reference: the bare per-operation service time.
	closed := Run(inProcess{st}, ops, Config{Workers: 1})

	res := Run(inProcess{st}, ops, Config{Workers: 1, Rate: 100_000_000, Seed: 3})
	if res.Reads.Count() != uint64(n) {
		t.Fatalf("histogram holds %d samples, want %d", res.Reads.Count(), n)
	}
	med, max := res.Reads.Quantile(0.5), res.Reads.Max()
	// The median arrival waits out ~half the backlog — roughly n/2
	// service times — so it must dwarf the closed-loop median, which a
	// send-time measurement would have reported instead.
	if med < 10*closed.Reads.Quantile(0.5) {
		t.Fatalf("no queueing in open-loop median: open=%dns closed=%dns",
			med, closed.Reads.Quantile(0.5))
	}
	// The last arrivals wait out nearly the whole run: the max must be
	// on the order of the run's span (allowing bucket error and noise).
	if max < res.elapsed.Nanoseconds()/2 {
		t.Fatalf("max latency %dns does not reflect the %v backlog", max, res.elapsed)
	}
	if max < med {
		t.Fatalf("max %dns below median %dns", max, med)
	}
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline or the deadline passes, absorbing scheduler stragglers.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 64<<10)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGeneratorShutdownLeavesNoGoroutines is the satellite leak test:
// after a run of either loop returns, the goroutine count returns to
// its pre-run baseline.
func TestGeneratorShutdownLeavesNoGoroutines(t *testing.T) {
	st, keys, _ := testStore(t, 4000)
	defer st.Close()
	ops := MixedOps(keys, 5000, 0.9, 0.99, 5)
	st.WaitCompactions()
	baseline := runtime.NumGoroutine()

	Run(inProcess{st}, ops, Config{Workers: 8})
	waitGoroutines(t, baseline)

	Run(inProcess{st}, ops, Config{Workers: 8, Rate: 2_000_000, Seed: 1})
	waitGoroutines(t, baseline)
}

// shedTarget is a fake Target that refuses every n-th operation with a
// shed error and fails every m-th with a plain error, tracking what it
// actually executed.
type shedTarget struct {
	mu       sync.Mutex
	n        int
	shedMod  int
	errMod   int
	executed int
}

type shedErr struct{}

func (shedErr) Error() string { return "shed: retry later" }
func (shedErr) Shed() bool    { return true }

func (s *shedTarget) disposition() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	if s.shedMod > 0 && s.n%s.shedMod == 0 {
		return shedErr{}
	}
	if s.errMod > 0 && s.n%s.errMod == 0 {
		return errors.New("plain failure")
	}
	s.executed++
	return nil
}

func (s *shedTarget) TryGet(k core.Key) (uint64, bool, error) {
	if err := s.disposition(); err != nil {
		return 0, false, err
	}
	return uint64(k) + 1, true, nil
}

func (s *shedTarget) TryPut(core.Key, uint64) error { return s.disposition() }

// TestShedAccounting pins the Target contract for both loops: sheds
// and errors are counted apart from accepted ops, excluded from the
// histograms, and conservation holds — every operation of the stream
// is accepted, shed, or errored. An in-process store, which can do
// neither, and a target that fails every operation go through the same
// Run and the same law.
func TestShedAccounting(t *testing.T) {
	st, keys, _ := testStore(t, 500)
	defer st.Close()
	ops := MixedOps(keys, 1200, 0.75, 0, 9)
	for _, tc := range []struct {
		name         string
		target       func() Target
		sheds, fails bool // whether the target refuses / fails anything
		accepts      bool // whether it serves anything
	}{
		{"mixed", func() Target { return &shedTarget{shedMod: 3, errMod: 7} }, true, true, true},
		{"failing", func() Target { return &shedTarget{errMod: 1} }, false, true, false},
		{"inprocess", func() Target { return inProcess{st} }, false, false, true},
	} {
		for _, rate := range []float64{0, 5_000_000} {
			name := fmt.Sprintf("%s/rate=%g", tc.name, rate)
			res := Run(tc.target(), ops, Config{Workers: 4, Rate: rate, Seed: 1})
			if (res.Sheds > 0) != tc.sheds || (res.Errors > 0) != tc.fails || (res.Ops() > 0) != tc.accepts {
				t.Fatalf("%s: dispositions: ops=%d sheds=%d errors=%d", name, res.Ops(), res.Sheds, res.Errors)
			}
			if res.Ops()+res.Sheds+res.Errors != len(ops) {
				t.Fatalf("%s: conservation violated: ops=%d sheds=%d errors=%d stream=%d",
					name, res.Ops(), res.Sheds, res.Errors, len(ops))
			}
			if got := res.Reads.Count() + res.Writes.Count(); got != uint64(res.Ops()) {
				t.Fatalf("%s: histograms hold %d samples for %d accepted ops", name, got, res.Ops())
			}
		}
	}
}

func TestIsShed(t *testing.T) {
	if !isShed(shedErr{}) || !isShed(fmt.Errorf("wrapped: %w", shedErr{})) {
		t.Fatal("shed error not recognized")
	}
	if isShed(errors.New("plain")) || isShed(nil) {
		t.Fatal("non-shed error recognized as shed")
	}
}

// TestGeneratorRace is the -race stress companion: closed and open
// loops with writes enabled run against background compactions while a
// reader polls store counters — any unsynchronized access in the
// generator/store seam trips the detector.
func TestGeneratorRace(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 4000, 17)
	payloads := make([]uint64, len(keys))
	for i := range payloads {
		payloads[i] = uint64(i) + 1
	}
	st, err := serve.New(keys, payloads, serve.Config{
		Shards: 4, Family: "PGM", CompactThreshold: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_ = st.DeltaLen()
				_ = st.Len()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	ops := MixedOps(keys, 4000, 0.5, 0.99, 5)
	Run(inProcess{st}, ops, Config{Workers: 8})
	Run(inProcess{st}, ops, Config{Workers: 8, Rate: 500_000, Seed: 2})
	close(stop)
	st.WaitCompactions()
}
