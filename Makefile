# Tier-1 verification plus the fast developer loop.
#
#   make check   # the pre-commit gate: vet + short tests + race on the fast
#                # packages + a 10s fuzz smoke of each fuzz target + the
#                # guard against names this tree has retired
#   make test    # plain tier-1 tests (what the seed ran; includes the
#                # quick-budget simulations and the golden-figure pin)
#   make short   # go test -short ./... — structural tests only, < 60 s
#   make race    # full test suite under the race detector
#   make fuzz    # 10s per fuzz target (go test -fuzz takes one at a time)
#   make bench   # the scheduler, packet-pool and trace-capture benchmarks
#                # (alloc counts, ns per arrival); set BENCH_COUNT=10 for
#                # benchstat samples. Everything else is measured by the
#                # benchmark module (benchmarks/)
#   make benchmark-smoke # vet + unit-test the benchmark module (benchmarks/,
#                # a Go module of its own that `go build ./...` never sees)
#                # and run one 3-second traced point, failing if any
#                # per-layer probe no longer builds
#   make golden  # regenerate testdata/golden after an intentional change
#
# `make short` skips the long simulations (testing.Short()); run `make test`
# before shipping anything that could move simulated numbers — the golden
# test in internal/exp pins quick-mode figure output byte-for-byte.

GO ?= go

# Packages with concurrency of their own: the experiment harness fan-out,
# the persistent run cache (shared-directory stores under concurrent
# readers/writers) and the public facade. internal/network rides along so
# the parallel harness exercises the activity-driven core (active list +
# fast-forward) under the race detector; internal/checkpoint so the
# fork-equivalence conformance suite (parallel subtests sharing traces)
# runs raced too. Everything else is single-threaded simulation.
RACE_FAST = ./internal/sim ./internal/stats ./internal/runcache ./noc ./internal/network ./internal/checkpoint

# Repetitions for `make bench`; benchstat wants >= 10 samples.
BENCH_COUNT ?= 1

.PHONY: check vet build test short race race-fast fuzz retired bench benchmark-smoke golden

check: vet build short race-fast fuzz retired

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

# The race detector slows the experiment suite ~10x; the default 10m
# per-package test timeout is not enough on small machines.
race:
	$(GO) test -race -timeout 60m ./...

# Race coverage for `make check`: short mode over the packages where
# goroutines actually meet (the parallel harness runs tinyBudget sims).
race-fast:
	$(GO) test -race -short $(RACE_FAST) ./internal/exp

# -fuzzminimizetime: short smoke runs must spend their budget fuzzing, not
# minimizing the first interesting inputs (the default is 60s per find,
# which starves a 10s run down to a handful of execs).
fuzz:
	$(GO) test ./internal/routing -run xxx -fuzz FuzzRoute -fuzztime 10s
	$(GO) test ./internal/topology -run xxx -fuzz FuzzTopologyCoords -fuzztime 10s
	$(GO) test ./internal/checkpoint -run xxx -fuzz FuzzCheckpointDecode -fuzztime 10s -fuzzminimizetime=10x
	$(GO) test ./internal/checkpoint -run xxx -fuzz FuzzSnapshotRoundTrip -fuzztime 10s -fuzzminimizetime=10x
	$(GO) test ./internal/traffic/tracestore -run xxx -fuzz FuzzTraceDecode -fuzztime 10s -fuzzminimizetime=10x
	$(GO) test ./internal/traffic -run xxx -fuzz FuzzMachineMatchesReference -fuzztime 10s -fuzzminimizetime=10x
	$(GO) test ./noc -run xxx -fuzz FuzzLoadConfig -fuzztime 10s -fuzzminimizetime=10x
	$(GO) test ./internal/exp -run xxx -fuzz FuzzFixed -fuzztime 10s -fuzzminimizetime=10x

# Names that must not come back: the second warm-key namespace and the raw
# store pass-throughs it needed (one run pipeline, exp.Warmed), the
# JSON-only payload pass-throughs (exp.CacheLookup/CacheStore pick the
# codec from the value's type), and the first benchmark system
# (benchmarks/ replaced it). The reference paths the
# equivalence tests compare against (the tick-everything core, the full-scan
# allocators, lookahead verification) are test hooks and stay out of
# production Go and CI. The tile-parallel engine is reachable only through
# network.Config.Tiles, for its benchmark probe and equivalence tests: no
# option, counter or flag above internal/network, and no -tiles in CI.
# The disk trace store and the straight warm-up switch left both commands:
# traces live in the in-memory memo only, and the straight warm-up is a
# test hook (noCheckpoint in internal/exp). Flits and credits have one
# delivery path, the message ring sized from the link table: the scheduler
# fallback and its checkpoint record stay gone. Traces are memoized in
# internal/exp's one memo type; internal/traffic keeps no trace cache.
# internal/exp keeps its run state in exp.Session: besides the default
# session, its only package-level variables are the registry/describe
# tables and the read-only rate lists of the figures. The network takes no
# observer callbacks (Probe, ProbeEvery, OnDeliver; the audit checker's
# own OnDeliver hook stays), and the experiments have one run path: the
# session has no build method beside the warm-up stage.
retired:
	@if git grep -nE 'ckpt-netsim\||CacheLookupRaw|CacheLookupJSON|CacheStoreJSON|internal/bench"|benchjson|BENCH_pr' -- '*.go' .github ':!benchmarks'; then \
	  echo 'retired names are back (see the matches above)' >&2; exit 1; fi
	@if git grep -nE 'RefAllocators|VerifyLookahead|Cfg\.NoSkip|NoSkip:|"noskip"|-noskip' -- '*.go' .github ':!*_test.go' ':!benchmarks'; then \
	  echo 'test-only oracles are reachable outside the tests again (see the matches above)' >&2; exit 1; fi
	@if git grep -nE 'Tiles|TileBarrier|"tiles"' -- cmd noc internal/exp ':!*_test.go' || git grep -n -e '-tiles' -- .github; then \
	  echo 'the tile-parallel engine is reachable above internal/network again (see the matches above)' >&2; exit 1; fi
	@if git grep -nE 'EnableTraceStore|DisableTraceStore|TraceStoreStats|SetTraceStore|InstalledTraceStore|TwoLevelTraceKey|NoCheckpoint|no-checkpoint|no-trace-store' -- '*.go' .github ':!*_test.go' ':!benchmarks'; then \
	  echo 'the disk trace store or -no-checkpoint is wired up again (see the matches above)' >&2; exit 1; fi
	@if git grep -nE 'slowEntry|slowDrop|SlowState' -- '*.go' ':!*_test.go' ':!benchmarks'; then \
	  echo 'the scheduler fallback for flits and credits is back (see the matches above)' >&2; exit 1; fi
	@if git grep -nE 'SharedTwoLevelTrace|ResetTraceCache|traceFallbackNotes|evictTracesLocked' -- '*.go' ':!*_test.go' ':!benchmarks'; then \
	  echo 'a second trace memo is back beside exp.traceMemo (see the matches above)' >&2; exit 1; fi
	@if git grep -nE '^var ' -- 'internal/exp/*.go' ':!*_test.go' | grep -vE '^[^:]+:[0-9]+:var (registry|describe|defaultSession|sweepRates|congestionRates|measureRates|thresholdRates|transitionRates) '; then \
	  echo 'internal/exp keeps run state in package variables again; it belongs in exp.Session (see the matches above)' >&2; exit 1; fi
	@if git grep -nE '^[[:space:]]+(Probe|ProbeEvery|OnDeliver)[[:space:]]|\.(Probe|ProbeEvery|OnDeliver)\b' -- 'internal/network/*.go' ':!*_test.go' | grep -v 'aud\.OnDeliver('; then \
	  echo 'the network takes observer callbacks again (see the matches above)' >&2; exit 1; fi
	@if git grep -nE 'func \([a-z]+ \*Session\) build\(' -- 'internal/exp/*.go' ':!*_test.go'; then \
	  echo 'exp.Session has a second run path beside the warm-up stage again (see the matches above)' >&2; exit 1; fi

# benchstat-friendly: `make bench BENCH_COUNT=10 > old.txt`, change code,
# `make bench BENCH_COUNT=10 > new.txt`, `benchstat old.txt new.txt`.
bench:
	$(GO) test ./internal/sim -run xxx -bench BenchmarkSchedulerPushPop -benchmem -count=$(BENCH_COUNT)
	$(GO) test ./internal/flow -run xxx -bench BenchmarkPacketAlloc -benchmem -count=$(BENCH_COUNT)
	$(GO) test ./internal/traffic -run xxx -bench BenchmarkCapture -benchmem -count=$(BENCH_COUNT)

# The benchmark (BENCHMARK.json, benchmarks/) builds its driver and sixteen
# per-layer probes from source against this tree's packages, so a change
# that renames a symbol a probe imports breaks it silently: the traced run
# reports that probe ABSENT on stderr and carries on. Catch it here.
benchmark-smoke:
	cd benchmarks && $(GO) vet ./... && $(GO) test ./...
	mkdir -p .bench_build
	bash benchmarks/run.sh --workload point-low --seed 1 --seconds 3 --trace 1 2>.bench_build/smoke.stderr; \
	  status=$$?; cat .bench_build/smoke.stderr >&2; \
	  test $$status -eq 0 && ! grep -q '^ABSENT' .bench_build/smoke.stderr

golden:
	$(GO) test ./internal/exp -run TestGoldenFigures -update
