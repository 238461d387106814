// Command figures regenerates the paper's tables and figures as text
// tables: one experiment per artifact of the evaluation section.
//
//	figures -list                 # what can be regenerated
//	figures -exp fig10            # latency & power vs rate, 100 tasks
//	figures -exp all -quick       # smoke-run everything
//	figures -exp all -quick -j 8  # same, 8 simulations in parallel
//	figures -exp fig10 -full      # the paper's 10M-cycle budget
//
// Simulation points fan out across -j worker goroutines (default
// GOMAXPROCS). Output is bit-for-bit identical at every -j: each point is
// independently seeded and tables assemble in fixed order.
//
// Finished results persist in a content-addressed run cache (default: the
// user cache directory), so an unchanged rerun replays stored results
// byte-identically instead of re-simulating; entries invalidate on code
// revision or parameter change. Caching therefore requires a VCS-stamped
// binary (`go build ./cmd/figures`): under `go run` no revision is
// embedded and the cache disables itself with a note on stderr.
// -no-cache recomputes everything; -cachestats reports hit/miss counters
// on stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/noc"
)

func main() {
	var (
		expID      = flag.String("exp", "", "experiment id (see -list), comma-separated ids, or 'all'")
		list       = flag.Bool("list", false, "list experiment ids")
		quick      = flag.Bool("quick", false, "shrink cycle budgets for a fast smoke run")
		full       = flag.Bool("full", false, "use the paper's 10M-cycle budget")
		seed       = flag.Uint64("seed", 1, "random seed family")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned text")
		auditFlag  = flag.Bool("audit", false, "run every simulation under the runtime invariant checker (slower, same output)")
		noCkpt     = flag.Bool("no-checkpoint", false, "every simulation point pays for its own warmup instead of forking the one policy-frozen warmup its (seed, rate) shares (slower, same output)")
		jobs       = flag.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		tiles      = flag.Int("tiles", 0, "tile-parallel blocks per simulation (0/1 = single scheduler; output is byte-identical at every tile count)")
		prefetch   = flag.Bool("prefetch", false, "report which run-cache keys the selected experiments would hit or miss; no simulations run")
		cacheDir   = flag.String("cache-dir", "", "persistent run cache directory (default: user cache dir)")
		noCache    = flag.Bool("no-cache", false, "disable the persistent run cache; recompute everything")
		noTraceStr = flag.Bool("no-trace-store", false, "disable the persistent arrival-trace store; re-capture workloads live (same output)")
		cacheStats = flag.Bool("cachestats", false, "print run-cache counters to stderr on exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *list || *expID == "" {
		fmt.Println("experiments:")
		for _, line := range noc.Experiments() {
			fmt.Println("  " + line)
		}
		if *expID == "" && !*list {
			os.Exit(2)
		}
		return
	}

	noc.SetExperimentParallelism(*jobs)

	if !*noCache {
		if err := noc.EnableRunCache(*cacheDir, 0); err != nil {
			// A cache that won't open costs speed, not correctness.
			fmt.Fprintln(os.Stderr, "figures: run cache disabled:", err)
		}
	}
	// The trace store is independent of -no-cache: traces decode to the
	// exact captured arrival sequence, so results are byte-identical with
	// the store on or off — a -no-cache recompute still replays warm
	// traces instead of re-simulating every workload.
	if !*noTraceStr {
		if err := noc.EnableTraceStore(*cacheDir, 0); err != nil {
			fmt.Fprintln(os.Stderr, "figures: trace store disabled:", err)
		}
	}
	if *cacheStats {
		defer noc.FprintCacheStats(os.Stderr)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	o := noc.ExperimentOptions{
		Quick: *quick, Full: *full, Seed: *seed, Audit: *auditFlag,
		NoCheckpoint: *noCkpt, Tiles: *tiles,
	}
	var ids []string
	switch {
	case *expID == "all":
		for _, line := range noc.Experiments() {
			ids = append(ids, strings.Fields(line)[0])
		}
	default:
		ids = strings.Split(*expID, ",")
	}

	if *prefetch {
		entries, err := noc.PrefetchExperiments(ids, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		// One section per store: result keys (the run cache), then trace
		// keys (the arrival-trace store). Entries arrive sorted by kind
		// then key, so each section prints contiguously with its own
		// summary line — CI asserts on both.
		section := func(kind, label string) {
			n, hits := 0, 0
			for _, e := range entries {
				if e.Kind != kind {
					continue
				}
				n++
				status := "MISS"
				if e.Hit {
					status = "HIT "
					hits++
				}
				fmt.Printf("%s %s\n", status, e.Key)
			}
			fmt.Printf("%s: %d keys, %d hit, %d miss\n", label, n, hits, n-hits)
		}
		section("result", "prefetch")
		section("trace", "prefetch traces")
		return
	}

	rendered, err := noc.RunExperiments(ids, o, *csv)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(1)
	}
	for i, id := range ids {
		if len(ids) > 1 {
			fmt.Printf("### %s\n\n", id)
		}
		fmt.Print(rendered[i])
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
		}
		f.Close()
	}
}
