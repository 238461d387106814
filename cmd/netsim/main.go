// Command netsim runs one simulation of the link-DVS network platform from
// flags and prints a result summary: the direct way to explore one
// operating point of the paper's system.
//
// Example — the paper's setup at 1.0 packets/cycle, with and without DVS:
//
//	netsim -rate 1.0 -policy history
//	netsim -rate 1.0 -policy none
//
// Under the two-level workload the warmup runs policy-frozen (DVS decision
// windows open only once measurement starts), which makes the warmed-up
// state policy-independent: with a run cache enabled, invocations that
// differ only in -policy, thresholds or transition latencies share one
// persisted warmup snapshot instead of each re-simulating it — and share
// it with cmd/figures, whose sweeps run the same stage under the same key.
// A forked warmup is byte-identical to a simulated one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/noc"
)

func main() {
	var (
		cfgPath  = flag.String("config", "", "JSON config file (see noc.SaveConfig); flags given explicitly override it")
		mesh     = flag.Int("mesh", 8, "mesh size k (k-ary 2-cube)")
		torus    = flag.Bool("torus", false, "wraparound (torus) channels")
		policy   = flag.String("policy", "history", "DVS policy: history | none | link-util-only | adaptive-thresholds")
		routing  = flag.String("routing", "dor", "routing algorithm: dor | adaptive")
		traffic  = flag.String("traffic", "twolevel", "workload: twolevel | uniform | transpose | bitreverse | shuffle | tornado | hotspot")
		rate     = flag.Float64("rate", 1.0, "aggregate packets/cycle (twolevel) or per-node rate (others)")
		tasks    = flag.Int("tasks", 100, "average concurrent task sessions (twolevel)")
		taskDur  = flag.Duration("taskdur", time.Millisecond, "average task duration (twolevel)")
		voltTran = flag.Duration("volttran", 10*time.Microsecond, "voltage transition latency")
		freqTran = flag.Int("freqtran", 100, "frequency transition latency (link cycles)")
		warmup   = flag.Int64("warmup", 60_000, "warmup cycles before measurement")
		measure  = flag.Int64("cycles", 150_000, "measured cycles")
		seed     = flag.Uint64("seed", 1, "random seed")
		audit    = flag.Bool("audit", false, "verify runtime invariants (conservation, VC and DVS legality) during the run")
		skipst   = flag.Bool("skipstats", false, "print activity-driven core statistics (fast-forwards, elided ticks, active-router histogram)")
		levels   = flag.Bool("levels", false, "print the final DVS level histogram")
		traceN   = flag.Int("trace", 0, "dump the last N trace events (of -tracekind, if given) after the run")
		traceK   = flag.String("tracekind", "", "trace filter: inject | deliver | transition | policy")

		cacheDir   = flag.String("cache-dir", "", "persistent run cache directory (default: user cache dir)")
		noCache    = flag.Bool("no-cache", false, "disable the persistent run cache; always simulate")
		cacheStats = flag.Bool("cachestats", false, "print run-cache counters to stderr on exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file after the run")
	)
	flag.Parse()

	if err := validateBudget(*warmup, *measure, *traceN, *traceK); err != nil {
		fail(err)
	}

	flagCfg := noc.DefaultConfig()
	flagCfg.MeshSize, flagCfg.Torus = *mesh, *torus
	flagCfg.Policy, flagCfg.Routing = *policy, *routing
	flagCfg.VoltTransition, flagCfg.FreqTransitionCycles = *voltTran, *freqTran
	flagCfg.Seed, flagCfg.Audit = *seed, *audit
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	cfg, workload, err := resolve(*cfgPath, set, flagCfg,
		noc.TwoLevelWorkload{Rate: *rate, Tasks: *tasks, TaskDuration: *taskDur})
	if err != nil {
		fail(err)
	}
	if err := validateWorkload(cfg, *traffic, workload); err != nil {
		fail(err)
	}

	if !*noCache {
		if err := noc.EnableRunCache(*cacheDir, 0); err != nil {
			// A cache that won't open costs speed, not correctness.
			fmt.Fprintln(os.Stderr, "netsim: run cache disabled:", err)
		}
	}
	if *cacheStats {
		defer noc.FprintCacheStats(os.Stderr)
	}
	// A summary is cacheable only when nothing live-only was requested:
	// profiles, traces, level histograms, skip statistics and audit counters
	// exist only on a real run. Warmup checkpointing needs no key suffix:
	// a forked warmup is byte-identical to a simulated one, so both modes
	// produce — and may share — the same entry.
	cacheable := !*noCache && !cfg.Audit && !*skipst && !*levels && *traceN == 0 &&
		*cpuprofile == "" && *memprofile == ""
	var cacheKey string
	if cacheable {
		cfgJSON, err := json.Marshal(cfg)
		if err != nil {
			fail(err)
		}
		cacheKey = fmt.Sprintf("netsim|cfg=%s|traffic=%s|rate=%g|tasks=%d|taskdur=%d|warmup=%d|cycles=%d|seed=%d",
			cfgJSON, *traffic, workload.Rate, workload.Tasks, int64(workload.TaskDuration), *warmup, *measure, workload.Seed)
		var cs cachedSummary
		if noc.RunCacheLookup(cacheKey, &cs) {
			printSummary(os.Stdout, cs.Results, cs.InFlight, cfg, *traffic, workload, *warmup)
			return
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
	}

	var n *noc.Network
	if *traffic == "twolevel" {
		// The warmup runs policy-frozen on a captured trace; with the run
		// cache enabled, it forks a persisted snapshot when a compatible
		// invocation already simulated it.
		n, err = noc.NewWarmedTwoLevel(cfg, workload, *warmup, *measure, true)
		if err != nil {
			fail(err)
		}
		if *traceN > 0 {
			// Measurement events only; warmup is pre-trace.
			if err := n.EnableTrace(*traceN, *traceK); err != nil {
				fail(err)
			}
		}
	} else {
		n, err = noc.New(cfg)
		if err != nil {
			fail(err)
		}
		if *traceN > 0 {
			if err := n.EnableTrace(*traceN, *traceK); err != nil {
				fail(err)
			}
		}
		switch *traffic {
		case "uniform":
			err = n.AttachUniform(*rate)
		case "transpose":
			err = n.AttachTranspose(*rate)
		case "bitreverse":
			err = n.AttachBitReverse(*rate)
		case "shuffle":
			err = n.AttachShuffle(*rate)
		case "tornado":
			err = n.AttachTornado(*rate)
		case "hotspot":
			err = n.AttachHotspot(*rate, 0, 0.2)
		}
		if err != nil {
			fail(err)
		}
		n.Warmup(*warmup)
	}
	r := n.Measure(*measure)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if cacheable {
		noc.RunCacheStore(cacheKey, cachedSummary{Results: r, InFlight: n.InFlight()})
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fail(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "netsim:", err)
		}
		f.Close()
	}

	printSummary(os.Stdout, r, n.InFlight(), cfg, *traffic, workload, *warmup)
	if s, ok := n.AuditStats(); ok {
		fmt.Printf("audit      : %d scans, %d checks, %d violations\n",
			s.Scans, s.Checks, s.Violations)
	}
	if *skipst {
		printSkipStats(n.SkipStats())
	}
	if *levels {
		fmt.Printf("levels     :")
		for lvl, count := range n.LevelHistogram() {
			fmt.Printf(" L%d:%d", lvl, count)
		}
		fmt.Println()
	}
	if *traceN > 0 {
		fmt.Println("trace      :")
		if err := n.DumpTrace(os.Stdout); err != nil {
			fail(err)
		}
	}
}

// resolve builds the run's platform and workload. Without a config file the
// flag values are the platform; with one, only the flags given explicitly
// (set) override the file. The two-level workload draws from the resolved
// seed.
func resolve(path string, set map[string]bool, flags noc.Config, w noc.TwoLevelWorkload) (noc.Config, noc.TwoLevelWorkload, error) {
	cfg := flags
	if path != "" {
		loaded, err := noc.LoadConfig(path)
		if err != nil {
			return cfg, w, err
		}
		cfg = loaded
		for name, override := range map[string]func(){
			"mesh":     func() { cfg.MeshSize = flags.MeshSize },
			"torus":    func() { cfg.Torus = flags.Torus },
			"policy":   func() { cfg.Policy = flags.Policy },
			"routing":  func() { cfg.Routing = flags.Routing },
			"volttran": func() { cfg.VoltTransition = flags.VoltTransition },
			"freqtran": func() { cfg.FreqTransitionCycles = flags.FreqTransitionCycles },
			"seed":     func() { cfg.Seed = flags.Seed },
			"audit":    func() { cfg.Audit = flags.Audit },
		} {
			if set[name] {
				override()
			}
		}
	}
	w.Seed = cfg.Seed
	return cfg, w, nil
}

// validateBudget refuses run lengths and trace requests that could only
// produce an empty or misleading summary, before anything simulates.
func validateBudget(warmup, measure int64, traceN int, traceKind string) error {
	switch {
	case measure < 1:
		return fmt.Errorf("-cycles %d: need at least one measured cycle", measure)
	case warmup < 0:
		return fmt.Errorf("-warmup %d: must not be negative", warmup)
	case traceN < 0:
		return fmt.Errorf("-trace %d: must not be negative", traceN)
	case traceN > noc.MaxTraceEvents:
		return fmt.Errorf("-trace %d: at most %d events", traceN, noc.MaxTraceEvents)
	}
	return noc.ValidTraceKind(traceKind)
}

// validateWorkload refuses an unknown -traffic, a -rate its workload cannot
// run at — NaN, an infinity, zero or less, more than one packet per node per
// cycle — a bit permutation on a node count that is not a power of two, a
// -tasks below one and a -taskdur of zero or less, with one line before
// anything simulates, where the model would otherwise never finish (a zero
// or NaN emission gap), refuse only after the network is built, or run the
// default workload under a header and cache key that name the bad values.
func validateWorkload(cfg noc.Config, traffic string, w noc.TwoLevelWorkload) error {
	switch {
	case w.Tasks < 1:
		return fmt.Errorf("-tasks %d: need at least one task session", w.Tasks)
	case w.TaskDuration <= 0:
		return fmt.Errorf("-taskdur %v: must be positive", w.TaskDuration)
	}
	switch traffic {
	case "twolevel":
		return w.Validate(cfg)
	case "bitreverse", "shuffle":
		nodes := 1
		for i := 0; i < cfg.Dims; i++ {
			nodes *= cfg.MeshSize
		}
		if nodes&(nodes-1) != 0 {
			return fmt.Errorf("-traffic %s needs a power-of-two node count, not %d", traffic, nodes)
		}
		fallthrough
	case "uniform", "transpose", "tornado", "hotspot":
		return noc.ValidNodeRate(w.Rate)
	}
	return fmt.Errorf("unknown traffic %q", traffic)
}

// fail prints one diagnostic line and exits with status 1.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "netsim:", err)
	os.Exit(1)
}

// cachedSummary is the persistent form of one run's summary: everything the
// default output needs, so a cache hit prints without simulating.
type cachedSummary struct {
	Results  noc.Results
	InFlight int64
}

// printSummary renders the standard result block for a live or cached run
// of the resolved platform cfg and workload w.
func printSummary(out io.Writer, r noc.Results, inFlight int64, cfg noc.Config,
	traffic string, w noc.TwoLevelWorkload, warmup int64) {
	fmt.Fprintf(out, "platform   : %dx%d mesh(torus=%v), policy=%s, routing=%s\n",
		cfg.MeshSize, cfg.MeshSize, cfg.Torus, cfg.Policy, cfg.Routing)
	fmt.Fprintf(out, "workload   : %s rate=%.2f (tasks=%d, dur=%v)\n", traffic, w.Rate, w.Tasks, w.TaskDuration)
	fmt.Fprintf(out, "cycles     : %d measured after %d warmup\n", r.Cycles, warmup)
	fmt.Fprintf(out, "packets    : %d injected, %d delivered, %d in flight\n",
		r.InjectedPackets, r.DeliveredPackets, inFlight)
	fmt.Fprintf(out, "latency    : %.1f cycles mean (P50 %.0f, P99 %.0f)\n",
		r.MeanLatencyCycles, r.P50LatencyCycles, r.P99LatencyCycles)
	fmt.Fprintf(out, "throughput : %.3f packets/cycle\n", r.ThroughputPkts)
	fmt.Fprintf(out, "power      : %.1f W avg (%.3f of non-DVS baseline, %.2fX savings)\n",
		r.AvgPowerW, r.NormalizedPower, r.PowerSavingsX)
}

// printSkipStats summarizes the activity-driven core's work avoidance.
func printSkipStats(s noc.SkipStats) {
	var idle, waiting float64
	if total := s.RouterTicks + s.RouterTicksElided; total > 0 {
		waiting = 100 * float64(s.RouterTicksSlept) / float64(total)
		idle = 100*s.ElisionRatio - waiting
	}
	fmt.Printf("skipping   : %d cycles stepped, %d fast-forwarded in %d jumps, %.1f%% router ticks elided (%.1f%% idle, %.1f%% waiting)\n",
		s.CyclesExecuted, s.CyclesFastForwarded, s.FastForwards, 100*s.ElisionRatio, idle, waiting)
	if s.CyclesExecuted == 0 {
		return
	}
	fmt.Printf("active     : %d/%d/%d routers per stepped cycle (p50/p90/max)\n",
		histQuantile(s.ActiveHist, 0.50), histQuantile(s.ActiveHist, 0.90), histMax(s.ActiveHist))
}

// histQuantile reports the smallest active-router count whose cumulative
// cycle share reaches q.
func histQuantile(hist []int64, q float64) int {
	var total int64
	for _, c := range hist {
		total += c
	}
	want := int64(q * float64(total))
	var cum int64
	for k, c := range hist {
		cum += c
		if cum > want {
			return k
		}
	}
	return len(hist) - 1
}

// histMax reports the largest active-router count observed.
func histMax(hist []int64) int {
	max := 0
	for k, c := range hist {
		if c > 0 {
			max = k
		}
	}
	return max
}
