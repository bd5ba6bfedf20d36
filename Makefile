GO ?= go

EXPERIMENTS = serve-lsm serve-obs serve-repl persist

.PHONY: tier1 vet loc bench bench-smoke bench-quick report-smoke obs-smoke race $(EXPERIMENTS) fuzz-smoke examples doccheck build-audit

# tier1 is the verify recipe: everything must build and every test pass.
tier1:
	$(GO) build ./... && $(GO) test ./...

# vet also vets the files only a build tag compiles (the probe-counting
# comparison of internal/search, the -race variants of net, registry
# and rs), and fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	$(GO) vet -tags probecount ./internal/search
	$(GO) vet -tags race ./internal/net ./internal/registry ./internal/rs
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

# loc prints the non-test Go line count of every internal/ package and
# their total — the number the roadmap's north star wants to go down —
# and beside it the count of exported identifiers under internal/, by
# kind, that TestEveryNameHasACaller logs; then every non-test file
# under internal/ over 800 lines, the north star's candidates for a
# split. CI's test job runs it, so every PR's log carries all three.
# TestEveryNameHasACaller (callers_test.go, part of `go test ./...`)
# fails a name under internal/ with no non-test caller as
# "R1 dead: pkg.[Recv.]Name (file:line)", an exported name with no
# reference from outside its package as "R2 over-exported", and a
# struct field no non-test code reads as "R3 unread: pkg.Type.field
# (file:line)"; delete, move into a _test.go file, unexport, or add
# the name to its callerAllowlist — every entry there needs a one-line
# reason, and a stale entry fails too.
loc:
	@total=0; for d in internal/*/; do \
		n=$$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		printf '%6d  %s\n' $$n $${d%/}; total=$$((total+n)); \
	done; printf '%6d  internal (total)\n' $$total
	@$(GO) test -count=1 -run 'TestEveryNameHasACaller$$' -v . | grep -o 'exported identifiers under internal/: .*'
	@find internal -name '*.go' ! -name '*_test.go' -exec wc -l {} + | \
		awk '$$2 != "total" && $$1 > 800 { printf "%6d  %s (over 800 lines)\n", $$1, $$2 }'

# bench runs the root benchmark subset exercising the serving layer.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkGetBatch|BenchmarkServeSharded|BenchmarkServeMixed|BenchmarkTable2' -benchtime 200000x .

# bench-smoke runs every benchmark in the repo exactly once so they
# cannot bit-rot (no timing value, just the code paths), plus a tiny
# serve-lsm run so the tier-policy sweep exercises flushes and merges
# end to end.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(MAKE) smoke-serve-lsm

# bench-quick drives the acceptance benchmark (BENCHMARK.json) end to
# end at its smallest scale, traced: all five workloads plus the layer
# ladder in about 35 s. It exits non-zero on any wrong payload or any
# metric BENCHMARK.json does not declare, so the harness the driver
# judges PRs with cannot bit-rot between PRs.
bench-quick:
	bash benchmark/run.sh --quick --seconds 2 --trace 1

# report-smoke runs every paper experiment but regress (which floors
# its scale at 2M keys) at a small scale into one machine-readable
# report and validates that it parses as a report document — the
# artifact CI uploads as BENCH_smoke.json. Every unfenced timed pass is
# payload-checked, so a wrong lookup anywhere fails it.
PAPER_EXPERIMENTS = table1 fig6 fig7 fig8 table2 fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16a fig16b fig16c fig17
report-smoke:
	$(GO) run ./cmd/sosd -n 20000 -lookups 2000 -format json -o BENCH_smoke.json $(PAPER_EXPERIMENTS)
	$(GO) run ./cmd/reportlint BENCH_smoke.json

# obs-smoke is the live observability gate: start sosdserve with the
# admin listener, scrape /metrics with metriclint (well-formedness plus
# the serving conservation laws), and shut the server down. Fails if
# the exposition is malformed or the counters contradict each other.
obs-smoke:
	$(GO) build -o /tmp/obs-smoke-sosdserve ./cmd/sosdserve
	/tmp/obs-smoke-sosdserve -n 20000 -addr 127.0.0.1:17461 -admin 127.0.0.1:17462 & \
	pid=$$!; \
	$(GO) run ./cmd/metriclint -wait 10s -laws http://127.0.0.1:17462/metrics; ok=$$?; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	exit $$ok

# race runs the concurrency-sensitive packages under the race detector
# (serve includes the snapshot/restore map-oracle suite; net runs
# concurrent clients against the server with compactions and a
# snapshot racing the traffic; obs scrapes a registry while recorders
# hammer it; repl streams a primary into followers killed mid-flight;
# dataset and load fill their streams and key sets, and core, rmi, pgm
# and rs their build passes, from up to one goroutine per CPU).
# The warm-restart test runs ten more times: it is the one that caught
# a follower publishing its position before the batch was readable,
# and then only two times in ten. So do the generators' and the builds'
# tests at GOMAXPROCS 1, 2, 3 and 8: which goroutine fills which range
# depends on the count and on the scheduler. serve's holds a store's
# merge decisions to its op sequence at GOMAXPROCS 1, 2 and 8, and
# bench's hold serve-lsm's replayed table and persist's table to their
# goldens there. A batched read probes its shards' states on the
# caller's goroutine, under concurrent compaction swaps, so the batch
# readers' tests and the follower resync behind a serving port run ten
# more times at 1, 2 and 8 CPUs.
race:
	$(GO) test -race ./internal/serve/ ./internal/table/ ./internal/stats/ ./internal/load/ ./internal/persist/ ./internal/net/ ./internal/obs/ ./internal/repl/ ./internal/dataset/ ./internal/core/ ./internal/rmi/ ./internal/pgm/ ./internal/rs/
	$(GO) test -race -count=10 -run TestFollowerWarmRestart ./internal/repl/
	$(GO) test -race -count=10 -run SameUnderGOMAXPROCS ./internal/dataset/ ./internal/load/ ./internal/registry/ ./internal/serve/ ./internal/bench/
	$(GO) test -race -count=10 -cpu 1,2,8 -run 'TestConcurrentGetBatch|TestSwapUnderReads|TestReadsAfterClose|TestOpenedReadsAfterClose|TestMappedRunsOutliveCompaction|TestResyncBehindServingPort' ./internal/serve/ ./internal/repl/

# One rule prints any of the serving experiments at a quick scale
# (override N and LOOKUPS for another):
#   serve-lsm   the tiered-run write path (tier policy x threshold x
#               family over YCSB A and B, each store a seeded
#               single-threaded replay: flushes, merges, key visits per
#               write, run probes per read; work only, no timing).
#   serve-obs   the observability and network conservation laws
#               (metrics, traces and journal checked against each other
#               under a mixed workload with compactions in flight, then
#               a 2x overload that admission control must shed with
#               its queue inside its bound; counts only).
#   serve-repl  replication (stream conservation laws, the router's
#               served + shed == offered and each node's share of the
#               reads per replica count, and the failover timeline).
#   persist     cold build vs warm restart in key visits and disk bytes.
# Every serving timing comes from benchmark/ (store-read, store-mixed,
# wire-point, routed-batch) and the root Go benchmarks (make bench).
N ?= 200000
LOOKUPS ?= 20000
$(EXPERIMENTS):
	$(GO) run ./cmd/sosd -n $(N) -lookups $(LOOKUPS) $@

# smoke-<experiment> runs one of them at the tiny scale CI affords: the
# laws and the code paths, no timing value.
smoke-%:
	$(MAKE) $* N=20000 LOOKUPS=2000

# fuzz-smoke runs every decoder fuzz target briefly (10s each):
# truncated/bit-flipped index frames, WALs, run files (FuzzTable, seeded
# with runs that carry both the tombstone and the index section),
# manifests, tombstone sections and wire frames must error, never panic
# or over-allocate.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/persist/
	$(GO) test -run '^$$' -fuzz '^FuzzWAL$$' -fuzztime $(FUZZTIME) ./internal/persist/
	$(GO) test -run '^$$' -fuzz '^FuzzTable$$' -fuzztime $(FUZZTIME) ./internal/persist/
	$(GO) test -run '^$$' -fuzz '^FuzzManifest$$' -fuzztime $(FUZZTIME) ./internal/persist/
	$(GO) test -run '^$$' -fuzz '^FuzzTombs$$' -fuzztime $(FUZZTIME) ./internal/persist/
	$(GO) test -run '^$$' -fuzz '^FuzzFrame$$' -fuzztime $(FUZZTIME) ./internal/net/

# build-audit is the GOAMD64=v3 check from the roadmap's hot-path
# item: the whole tree must compile at the wider instruction baseline
# (POPCNT/BMI2/AVX guaranteed, no runtime feature dispatch), and the
# root benchmark subset re-runs under it so the delta vs a plain
# `make bench` on the same machine shows what v3 buys the hot path.
build-audit:
	GOAMD64=v3 $(GO) build ./...
	GOAMD64=v3 $(GO) vet ./...
	GOAMD64=v3 $(GO) test -run '^$$' -bench 'BenchmarkGetBatch|BenchmarkServeSharded|BenchmarkServeMixed|BenchmarkTable2' -benchtime 200000x .

# examples builds every walkthrough under examples/.
examples:
	$(GO) build ./examples/...

# doccheck fails when README.md does not mention every directory under
# internal/, or when README.md or DESIGN.md names a `pkg.Name` or
# `pkg.Type.Member` of an internal package that does not resolve — the
# doc-drift guard run in CI.
doccheck:
	@missing=0; \
	for d in internal/*/; do \
		p=$$(basename $$d); \
		grep -q "internal/$$p" README.md || { echo "README.md does not mention internal/$$p"; missing=1; }; \
	done; \
	exit $$missing
	$(GO) test -count=1 -run '^TestDocNamesResolve$$' .
