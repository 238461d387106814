package main

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"runtime"
	"strconv"

	"repro/benchmarks/internal/harness"
)

// probes are the per-layer main packages a traced run builds and runs, one
// per simulator package (tile is internal/network's second engine, kept
// apart so that deleting that engine takes only its own numbers away).
var probes = []string{
	"router", "routing", "link", "core", "sim", "flow", "traffic", "tracestore",
	"stats", "power", "network", "tile", "checkpoint", "runcache", "exp", "audit",
}

// perLayer is the metric set of a traced run: counts from the untraced
// reps' public counters, the simulated statistics, host readings, and each
// probe's unit costs.
func (r *run) perLayer(w workload, binDir string) harness.Metrics {
	m := harness.Metrics{}
	p := w.point()

	// Counts and simulated statistics come from the workload's own reps
	// where it is a point; a sweep exposes no counters of its simulations,
	// so one point at its operating point stands in, under its own span.
	untraced := harness.Summarize(walls(r.reps))
	ref, refWall := r.reps[len(r.reps)-1], untraced.Min
	if ref.res.Cycles == 0 {
		sp := r.tr.Start("reference-point", nil, 0)
		ref = p.simulate(r.seed, r.tr, sp, 0)
		sp.End()
		r.check("reference point", ref)
		refWall = ref.wall.Seconds()
	}
	cycles := float64(ref.skip.CyclesExecuted + ref.skip.CyclesFastForwarded)
	m.Set("network.router_ticks_per_cycle", float64(ref.skip.RouterTicks)/cycles, "1/cycle")
	m.Set("network.tick_elision_ratio", ref.skip.ElisionRatio, "fraction")
	m.Set("network.ff_cycle_frac", float64(ref.skip.CyclesFastForwarded)/cycles, "fraction")
	m.Set("noc.mean_latency_cycles", ref.res.MeanLatencyCycles, "cycles")
	m.Set("noc.p99_latency_cycles", ref.res.P99LatencyCycles, "cycles")
	m.Set("noc.throughput_pkts", ref.res.ThroughputPkts, "pkts/cycle")
	m.Set("noc.power_savings_x", ref.res.PowerSavingsX, "x")

	last := r.reps[len(r.reps)-1]
	m.Set("runcache.puts_per_rep", float64(last.cache.Puts), "count")
	m.Set("runcache.hits_per_rep", float64(last.cache.Hits), "count")
	m.Set("runcache.misses_per_rep", float64(last.cache.Misses), "count")
	m.Set("runcache.bytes_written_per_rep", float64(last.cache.BytesWritten), "bytes")
	m.Set("runcache.bytes_read_per_rep", float64(last.cache.BytesRead), "bytes")

	traced := harness.Min(walls(r.tracedOps))
	m.Set("harness.rep_wall_s", untraced.Min, "s")
	m.Set("harness.rep_wall_median_s", untraced.Median, "s")
	m.Set("harness.rep_wall_p90_s", untraced.P90, "s")
	m.Set("harness.reps", float64(untraced.N), "count")
	m.Set("harness.trace_overhead_frac", (traced-untraced.Min)/untraced.Min, "fraction")
	allocs := make([]float64, len(r.reps))
	for i, o := range r.reps {
		allocs[i] = float64(o.alloc) / 1e6
	}
	m.Set("harness.alloc_mb_per_rep", harness.Median(allocs), "MB")
	m.Set("harness.live_heap_mb", float64(r.liveHeap)/1e6, "MB")
	if rss, ok := harness.PeakRSSMB(); ok {
		m.Set("harness.peak_rss_mb", rss, "MB")
	}
	m.Set("harness.canary_alu_ms", harness.Median(append(r.aluStart, r.aluEnd...)), "ms")
	m.Set("harness.canary_chase_ms", harness.Median(append(r.chaseStart, r.chaseEnd...)), "ms")
	if psi, ok := harness.PSICPUSomeAvg10(); ok {
		m.Set("harness.psi_cpu_some_avg10", psi, "%")
	}
	m.Set("harness.nproc", float64(runtime.NumCPU()), "count")

	// The network probe replays this workload's point call by call; the
	// others take no arguments.
	pointArgs := []string{
		"-rate", strconv.FormatFloat(p.rate, 'g', -1, 64), "-taskdur", p.taskDur.String(),
		"-warm", strconv.FormatInt(p.warm, 10), "-meas", strconv.FormatInt(p.meas, 10),
		"-seed", strconv.FormatUint(r.seed, 10),
	}
	for _, name := range probes {
		var args []string
		if name == "network" {
			args = pointArgs
		}
		sp := r.tr.Start("probe:"+name, nil, 0)
		out, err := harness.RunProbe(".", "./layers/"+name, binDir, args...)
		sp.End()
		switch {
		case errors.Is(err, harness.ErrProbeBuild):
			// The layer changed under the probe: its metrics are absent,
			// which is a fact about the commit, not a failed operation.
			fmt.Fprintln(os.Stderr, "ABSENT", err)
		case err != nil:
			r.attempted++
			r.failed++
			fmt.Fprintln(os.Stderr, "FAILED", err)
		default:
			maps.Copy(m, out.Metrics)
			r.tr.Graft(sp, out.Spans)
		}
	}

	// An upper bound on the router datapath's share of a rep: every tick
	// priced as a loaded one. What is left is unattributed until the
	// program counts its own phases.
	if tick, ok := m["router.tick_loaded_ns"]; ok {
		m.Set("network.est_router_share", float64(ref.skip.RouterTicks)*tick.Value/1e9/refWall, "fraction")
	}
	return m
}
