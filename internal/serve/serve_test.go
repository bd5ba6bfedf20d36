package serve

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/registry"
)

func testData(t *testing.T, n int) ([]core.Key, []uint64) {
	t.Helper()
	keys := dataset.MustGenerate(dataset.Amzn, n, 17)
	payloads := make([]uint64, len(keys))
	for i := range payloads {
		payloads[i] = uint64(i)*3 + 7
	}
	return keys, payloads
}

func expectGet(keys []core.Key, payloads []uint64, x core.Key) (uint64, bool) {
	pos := core.LowerBound(keys, x)
	if pos < len(keys) && keys[pos] == x {
		return payloads[pos], true
	}
	return 0, false
}

// TestStoreCorrectness verifies Get and GetBatch against LowerBound
// ground truth across shard boundaries, for every serve family.
func TestStoreCorrectness(t *testing.T) {
	keys, payloads := testData(t, 6000)
	for _, family := range registry.WriteFamilies {
		st, err := New(keys, payloads, Config{Shards: 5, Family: family})
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		if st.NumShards() < 2 {
			t.Fatalf("%s: only %d shards", family, st.NumShards())
		}
		if st.Len() != len(keys) {
			t.Fatalf("%s: Len %d != %d", family, st.Len(), len(keys))
		}

		probes := append(dataset.Lookups(keys, 1000, 5), dataset.AbsentLookups(keys, 200, 5)...)
		probes = append(probes, 0, ^core.Key(0), keys[0], keys[len(keys)-1])
		for _, x := range probes {
			wantV, wantOK := expectGet(keys, payloads, x)
			gotV, gotOK := st.Get(x)
			if gotV != wantV || gotOK != wantOK {
				t.Fatalf("%s: Get(%d) = (%d,%v), want (%d,%v)", family, x, gotV, gotOK, wantV, wantOK)
			}
		}

		out := make([]uint64, len(probes))
		found := st.GetBatch(probes, out)
		wantFound := 0
		for i, x := range probes {
			wantV, wantOK := expectGet(keys, payloads, x)
			if wantOK {
				wantFound++
			}
			if out[i] != wantV {
				t.Fatalf("%s: GetBatch key %d -> %d, want %d", family, x, out[i], wantV)
			}
		}
		if found != wantFound {
			t.Fatalf("%s: found %d, want %d", family, found, wantFound)
		}
		st.Close()
	}
}

// TestConcurrentGetBatch hammers a >= 4 shard store from many
// concurrent callers; run under -race this is the serving layer's
// safety test.
func TestConcurrentGetBatch(t *testing.T) {
	keys, payloads := testData(t, 8000)
	st, err := New(keys, payloads, Config{Shards: 4, Family: "PGM"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.NumShards() < 4 {
		t.Fatalf("only %d shards, need >= 4", st.NumShards())
	}

	const callers = 8
	var wg sync.WaitGroup
	errs := make(chan string, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			probes := dataset.Lookups(keys, 500, uint64(c+1))
			out := make([]uint64, len(probes))
			for rep := 0; rep < 20; rep++ {
				st.GetBatch(probes, out)
				for i, x := range probes {
					if want, _ := expectGet(keys, payloads, x); out[i] != want {
						errs <- "stale or wrong batch result"
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestSwapUnderReads rewrites one shard's payloads round after round —
// a Put per key into the delta, then a Compact that freezes the delta
// and publishes a rebuilt base — while readers stream batches. Readers
// must never block on the writer, and every key they read must carry
// its old payload or a newer one, never a mix of states: round r writes
// old*(r+1), so a reader's view of a key may only move forward.
func TestSwapUnderReads(t *testing.T) {
	keys, payloads := testData(t, 8000)
	st, err := New(keys, payloads, Config{Shards: 4, Family: "BTree", CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	sh := 1
	lo := core.LowerBound(keys, st.seps[sh])
	hi := len(keys)
	if sh+1 < len(st.seps) {
		hi = core.LowerBound(keys, st.seps[sh+1])
	}
	const rounds = 5

	stop := make(chan struct{})
	readerErrs := make(chan string, 4)
	var readers sync.WaitGroup
	for c := 0; c < 4; c++ {
		readers.Add(1)
		go func(c int) {
			defer readers.Done()
			probes := dataset.Lookups(keys[lo:hi], 256, uint64(c+11))
			out := make([]uint64, len(probes))
			found := make([]bool, len(probes))
			seen := make([]uint64, len(probes)) // newest round observed per probe
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := st.GetBatchFound(probes, out, found); n != len(probes) {
					readerErrs <- "batch lost a key that was never deleted"
					return
				}
				for i, x := range probes {
					old, _ := expectGet(keys, payloads, x)
					m := out[i] / old
					if !found[i] || out[i] != old*m || m < 1 || m > rounds+1 {
						readerErrs <- "batch saw a payload no round ever wrote"
						return
					}
					if m < seen[i] {
						readerErrs <- "key moved backwards: a swap exposed an older state"
						return
					}
					seen[i] = m
				}
			}
		}(c)
	}
	for r := 1; r <= rounds; r++ {
		for i := lo; i < hi; i++ {
			old, _ := expectGet(keys, payloads, keys[i]) // first occurrence, should keys repeat
			st.Put(keys[i], old*uint64(r+1))
		}
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	close(readerErrs)
	for msg := range readerErrs {
		t.Fatal(msg)
	}

	// After the last swap, reads must see the final round's payloads.
	x := keys[lo]
	want, _ := expectGet(keys, payloads, x)
	want *= rounds + 1
	if got, ok := st.Get(x); !ok || got != want {
		t.Fatalf("after the last swap: Get(%d) = %d, want %d", x, got, want)
	}
}

// TestReadsAfterClose holds every read of a closed store to the state
// it held at Close: a follower's serving port keeps the store it was
// given after a resync closes it, and goes on answering stale reads
// from it. The store closes with a tier run, tombstones and a pending
// delta, so each read path overlays writes on runs.
func TestReadsAfterClose(t *testing.T) {
	keys, st := compactedStore(t)
	checkReadsAfterClose(t, st, keys)
}

// TestOpenedReadsAfterClose is TestReadsAfterClose on a store opened
// from a snapshot, whose base runs are served from their mapped files,
// with the GC run after Close: Close releases no mapping.
func TestOpenedReadsAfterClose(t *testing.T) {
	keys, st := compactedStore(t)
	dir := t.TempDir()
	if err := st.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	st.Close()
	opened, err := Open(dir, Config{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	checkReadsAfterClose(t, opened, keys)
}

// compactedStore is a 4-shard PGM store over 6,000 keys whose every
// fifth key was overwritten and compacted into the base runs.
func compactedStore(t *testing.T) ([]core.Key, *Store) {
	keys, payloads := testData(t, 6000)
	st, err := New(keys, payloads, Config{Shards: 4, Family: "PGM", CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(keys); i += 5 {
		st.Put(keys[i], uint64(i)+1e9)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	return keys, st
}

// checkReadsAfterClose deletes every seventh key and overwrites every
// eleventh, then holds Get, GetBatch, GetBatchFound and Scan after
// Close and two collections to what they read before Close.
func checkReadsAfterClose(t *testing.T, st *Store, keys []core.Key) {
	for i := 1; i < len(keys); i += 7 {
		st.Delete(keys[i])
	}
	for i := 2; i < len(keys); i += 11 {
		st.Put(keys[i], uint64(i)+2e9)
	}
	probes := append(dataset.Lookups(keys, 2000, 9), dataset.AbsentLookups(keys, 200, 9)...)

	type view struct {
		get, batch, batchFound []uint64
		found                  []bool
		hits, hitsFound        int
		scanned                []uint64
	}
	read := func() view {
		v := view{
			get:        make([]uint64, len(probes)),
			batch:      make([]uint64, len(probes)),
			batchFound: make([]uint64, len(probes)),
			found:      make([]bool, len(probes)),
		}
		for i, x := range probes {
			v.get[i], _ = st.Get(x)
		}
		v.hits = st.GetBatch(probes, v.batch)
		v.hitsFound = st.GetBatchFound(probes, v.batchFound, v.found)
		st.Scan(0, ^core.Key(0), func(k core.Key, p uint64) bool {
			v.scanned = append(v.scanned, uint64(k), p)
			return true
		})
		return v
	}
	before := read()
	st.Close()
	runtime.GC()
	runtime.GC()
	after := read()

	if !reflect.DeepEqual(before, after) {
		t.Fatal("reads after Close differ from the same reads before it")
	}
	if got, ok := st.Get(keys[1]); ok {
		t.Fatalf("closed store lost a tombstone: Get = %d", got)
	}
	if got, _ := st.Get(keys[2]); got != 2+2e9 {
		t.Fatalf("closed store lost a pending write: Get = %d, want %d", got, uint64(2+2e9))
	}
}

// TestMappedRunsOutliveCompaction: readers check every value they read
// from an opened store while majors replace every mapped base run and
// the GC runs without pause, so a reader's shard state outlives the
// runs the store dropped; once the store and its readers are gone, the
// cleanups unmap every run file. /proc/self/maps counts the mappings.
func TestMappedRunsOutliveCompaction(t *testing.T) {
	if _, err := os.ReadFile("/proc/self/maps"); err != nil {
		t.Skip("no /proc/self/maps to count the mappings in")
	}
	keys, payloads := testData(t, 8000)
	st, err := New(keys, payloads, Config{Shards: 4, Family: "PGM", CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := st.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	st.Close()
	mapped := func() int {
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		return strings.Count(string(maps), dir+string(os.PathSeparator))
	}
	opened, err := Open(dir, Config{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := mapped(); got != 4 {
		t.Fatalf("%d run files mapped after Open, want the 4 base runs", got)
	}

	const rounds = 4
	stop := make(chan struct{})
	errs := make(chan string, 3)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // the collector
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	for c := range 2 {
		go func() {
			defer wg.Done()
			probes := dataset.Lookups(keys, 256, uint64(c+21))
			out := make([]uint64, len(probes))
			found := make([]bool, len(probes))
			ok := func(x core.Key, v uint64) bool {
				old, _ := expectGet(keys, payloads, x)
				m := v / old
				return v == old*m && m >= 1 && m <= rounds+1
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				opened.GetBatchFound(probes, out, found)
				for i, x := range probes {
					if v, _ := opened.Get(x); !found[i] || !ok(x, out[i]) || !ok(x, v) {
						errs <- fmt.Sprintf("key %d read %d (found %v), %d: no round wrote it", x, out[i], found[i], v)
						return
					}
				}
				lo := probes[0]
				opened.Scan(lo, lo+1<<40, func(k core.Key, v uint64) bool {
					if !ok(k, v) {
						errs <- fmt.Sprintf("scan read %d at key %d: no round wrote it", v, k)
						return false
					}
					return true
				})
			}
		}()
	}
	for r := 1; r <= rounds; r++ {
		for i, x := range keys {
			if i == 0 || keys[i-1] != x {
				old, _ := expectGet(keys, payloads, x)
				opened.Put(x, old*uint64(r+1))
			}
		}
		if err := opened.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	opened.Close()

	deadline := time.Now().Add(10 * time.Second)
	for mapped() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d run files still mapped after the store was dropped", mapped())
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHeterogeneousShards exercises builderFor: alternating families
// across shards behind one store.
func TestHeterogeneousShards(t *testing.T) {
	keys, payloads := testData(t, 6000)
	fams := []string{"RMI", "BTree", "PGM", "RBS"}
	st, err := New(keys, payloads, Config{
		Shards: 4,
		builderFor: func(shard int, keys []core.Key) (core.Builder, error) {
			nb, _ := registry.Builder(fams[shard%len(fams)], keys)
			return nb.Builder, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	probes := dataset.Lookups(keys, 500, 3)
	out := make([]uint64, len(probes))
	st.GetBatch(probes, out)
	for i, x := range probes {
		if want, _ := expectGet(keys, payloads, x); out[i] != want {
			t.Fatalf("key %d -> %d, want %d", x, out[i], want)
		}
	}
	if st.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive")
	}
}

// TestUnknownFamily covers config validation.
// TestReadOnlyDropsSeries: sosd_store_readonly_drops_total counts the
// direct writes the replica gate refuses, one per refused Put or
// Delete, and the refused writes leave the data as it was.
func TestReadOnlyDropsSeries(t *testing.T) {
	keys, payloads := testData(t, 2000)
	reg := obs.NewRegistry()
	st, err := New(keys, payloads, Config{Shards: 2, Family: "PGM", CompactThreshold: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Put(keys[0], 5) // accepted, not counted
	st.SetReadOnly(true)
	st.Put(keys[1], 6)
	st.Delete(keys[2])
	if v, ok := reg.Value("sosd_store_readonly_drops_total"); !ok || v != 2 {
		t.Fatalf("sosd_store_readonly_drops_total = %v (registered %v), want 2", v, ok)
	}
	for i, want := range []uint64{5, payloads[1], payloads[2]} {
		if v, ok := st.Get(keys[i]); !ok || v != want {
			t.Errorf("key %d = (%d, %v), want %d", i, v, ok, want)
		}
	}
}

func TestUnknownFamily(t *testing.T) {
	keys, payloads := testData(t, 100)
	if _, err := New(keys, payloads, Config{Family: "NoSuchIndex"}); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := New(nil, nil, Config{}); err == nil {
		t.Error("empty key set accepted")
	}
	if _, err := New(keys, payloads[:10], Config{}); err == nil {
		t.Error("length mismatch accepted")
	}
}

// TestShardOfMatchesSortSearch checks the inlined branchless separator
// search against the sort.Search formulation it replaced, across every
// separator-count shape (1..17 shards, including non-power-of-two
// widths) and probe positions below, at, between, and above every
// separator.
func TestShardOfMatchesSortSearch(t *testing.T) {
	oracle := func(seps []core.Key, x core.Key) int {
		i := sort.Search(len(seps), func(i int) bool { return seps[i] > x })
		if i == 0 {
			return 0
		}
		return i - 1
	}
	rng := rand.New(rand.NewSource(11))
	for nShards := 1; nShards <= 17; nShards++ {
		st := &Store{seps: make([]core.Key, nShards)}
		v := core.Key(5 + rng.Intn(100))
		for i := range st.seps {
			st.seps[i] = v
			v += core.Key(1 + rng.Intn(1000))
		}
		var probes []core.Key
		probes = append(probes, 0, ^core.Key(0))
		for _, s := range st.seps {
			probes = append(probes, s-1, s, s+1)
		}
		for q := 0; q < 200; q++ {
			probes = append(probes, core.Key(rng.Intn(int(v)+10)))
		}
		for _, x := range probes {
			if got, want := st.shardOf(x), oracle(st.seps, x); got != want {
				t.Fatalf("shardOf(%d) over %v = %d, want %d", x, st.seps, got, want)
			}
		}
	}
}
