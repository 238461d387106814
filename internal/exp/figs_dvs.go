package exp

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/stats"
)

// Figures 10 and 11 are the paper's headline experiment: network latency,
// throughput and normalized power versus packet injection rate, with and
// without history-based DVS, under the two-level workload with 100 (Fig.
// 10) or 50 (Fig. 11) average concurrent tasks of 1 ms mean duration.

// sweepRates spans the pre-saturation region into early congestion. The
// paper sweeps 0.1-2.1 packets/cycle and saturates near 2.1; our workload
// (per-packet sphere-of-locality destinations) spreads load more evenly, so
// the same platform saturates near 5 packets/cycle — the sweep covers the
// same relative positions.
var sweepRates = []float64{0.5, 1.0, 2.0, 3.0, 4.0, 5.0}

// congestionRates push well past saturation for Figure 12.
var congestionRates = []float64{2.0, 4.0, 6.0, 8.0, 10.0, 12.0}

func init() {
	register("fig10", "latency & power vs injection rate, 100 tasks, DVS vs no-DVS",
		func(ses *Session, o Options) []Table { return dvsSweep(ses, o, 100) })
	register("fig11", "latency & power vs injection rate, 50 tasks, DVS vs no-DVS",
		func(ses *Session, o Options) []Table { return dvsSweep(ses, o, 50) })
	register("fig12", "power and throughput beyond saturation (100 tasks)", runFig12)
	register("headline", "abstract numbers: power savings, latency and throughput deltas",
		func(ses *Session, o Options) []Table { return headline(ses, o) })
}

// dvsSweep regenerates Figure 10/11: one row per injection rate comparing
// the no-DVS baseline with history-based DVS.
func dvsSweep(ses *Session, o Options, tasks int) []Table {
	perf := Table{
		Title:  fmt.Sprintf("Figure %d(a): latency/throughput, %d tasks", 10+(100-tasks)/50, tasks),
		Header: []string{"rate", "lat(noDVS)", "lat(DVS)", "thr(noDVS)", "thr(DVS)", "lat ratio"},
	}
	pow := Table{
		Title:  fmt.Sprintf("Figure %d(b): normalized network power, %d tasks", 10+(100-tasks)/50, tasks),
		Header: []string{"rate", "power(noDVS)", "power(DVS)", "savings"},
	}
	// Fan the whole (rate x policy) cross-product across the worker slots,
	// then assemble rows sequentially in sweep order — the output is
	// byte-identical to the old per-point loop.
	specs := make([]spec, 0, 2*len(sweepRates))
	for _, rate := range sweepRates {
		sb := defaultSpec(rate, network.PolicyNone)
		sb.tasks = tasks
		sd := defaultSpec(rate, network.PolicyHistory)
		sd.tasks = tasks
		specs = append(specs, sb, sd)
	}
	res := ses.sweep(o, specs)
	var baseLat, dvsLat, rates, savAt []float64
	maxSav, sumSav := 0.0, 0.0
	for i, rate := range sweepRates {
		b, d := res[2*i], res[2*i+1]
		perf.AddRow(f(rate, 2), f(b.MeanLatency, 0), f(d.MeanLatency, 0),
			f(b.ThroughputPkts, 3), f(d.ThroughputPkts, 3),
			f(d.MeanLatency/b.MeanLatency, 2))
		pow.AddRow(f(rate, 2), "1.000", f(d.NormalizedPwr, 3), fx(d.SavingsX, 2))
		rates = append(rates, rate)
		baseLat = append(baseLat, b.MeanLatency)
		dvsLat = append(dvsLat, d.MeanLatency)
		if d.SavingsX > maxSav {
			maxSav = d.SavingsX
		}
		sumSav += d.SavingsX
		savAt = append(savAt, d.SavingsX)
	}
	// Each curve is judged against its own zero-load latency, as the paper
	// defines saturation.
	satBase, okBase := stats.SaturationPoint(rates, baseLat, baseLat[0])
	satDVS, okDVS := stats.SaturationPoint(rates, dvsLat, dvsLat[0])
	satNote := "neither curve saturates in the swept range"
	switch {
	case okBase && okDVS:
		satNote = fmt.Sprintf("saturation (2x own zero-load): no-DVS near %.2f, DVS near %.2f", satBase, satDVS)
	case okDVS:
		satNote = fmt.Sprintf("DVS saturates near rate %.2f; no-DVS does not in range", satDVS)
	case okBase:
		satNote = fmt.Sprintf("no-DVS saturates near rate %.2f; DVS does not in range", satBase)
	}
	// Average savings over the pre-saturation region (the paper's sweep
	// stops just past its saturation point).
	preSav, nPre := 0.0, 0
	for i, r := range rates {
		if !okDVS || r < satDVS {
			preSav += savAt[i]
			nPre++
		}
	}
	if nPre == 0 {
		preSav, nPre = sumSav, len(sweepRates)
	}
	pow.Notes = []string{
		fmt.Sprintf("max savings %.1fX; average %.1fX pre-saturation (%.1fX across the full sweep)",
			maxSav, preSav/float64(nPre), sumSav/float64(len(sweepRates))),
		fmt.Sprintf("paper (%d tasks): up to %s power savings", tasks,
			map[int]string{100: "6.3X (4.6X average)", 50: "6.4X (4.9X average)"}[tasks]),
	}
	perf.Notes = []string{
		satNote,
		"paper: latency +15.2% (100 tasks) / +14.7% (50 tasks) before congestion; throughput -2.5%",
		"our conservative link model pays a larger latency premium at light load (links idle down to 125 MHz, 8x flit serialization); the qualitative shape matches",
	}
	return []Table{perf, pow}
}

// runFig12 tracks DVS power and throughput as injection pushes far beyond
// saturation: power first rises with throughput, then dips as congestion
// idles more links than it loads.
func runFig12(ses *Session, o Options) []Table {
	t := Table{
		Title:  "Figure 12: power and throughput under network congestion (100 tasks, DVS)",
		Header: []string{"rate", "throughput", "power(W)", "normalized"},
	}
	specs := make([]spec, len(congestionRates))
	for i, rate := range congestionRates {
		specs[i] = defaultSpec(rate, network.PolicyHistory)
	}
	res := ses.sweep(o, specs)
	var thr, pw []float64
	for i, rate := range congestionRates {
		r := res[i]
		t.AddRow(f(rate, 2), f(r.ThroughputPkts, 3), f(r.AvgPowerW, 1), f(r.NormalizedPwr, 3))
		thr = append(thr, r.ThroughputPkts)
		pw = append(pw, r.AvgPowerW)
	}
	// Identify the power peak: the paper's observation is that power tracks
	// throughput, rising into saturation and dipping only when the whole
	// network congests and throughput falls.
	peak := 0
	for i := range pw {
		if pw[i] > pw[peak] {
			peak = i
		}
	}
	t.Notes = []string{
		fmt.Sprintf("power peaks at rate %.2f (%.1f W) and declines beyond it", congestionRates[peak], pw[peak]),
		"paper shape: network power rises with throughput, then dips past full congestion",
	}
	return []Table{t}
}

// headline condenses the Figure 10 sweep into the abstract's comparison
// numbers.
func headline(ses *Session, o Options) []Table {
	t := Table{
		Title:  "Headline comparison vs the paper's abstract",
		Header: []string{"metric", "paper", "measured"},
	}
	// All points of both curves run concurrently; the zero-load reference
	// is the first DVS point, deduplicated by the cache.
	specs := make([]spec, 0, 2*len(sweepRates))
	for _, rate := range sweepRates {
		specs = append(specs,
			defaultSpec(rate, network.PolicyNone),
			defaultSpec(rate, network.PolicyHistory))
	}
	res := ses.sweep(o, specs)
	var latRatioSum float64
	var n int
	maxSav, sumSav := 0.0, 0.0
	var thrBase, thrDVS float64
	zeroLoad := ses.run(defaultSpec(sweepRates[0], network.PolicyHistory), o).MeanLatency
	for i := range sweepRates {
		b, d := res[2*i], res[2*i+1]
		// Pre-saturation points only (the paper's 2x zero-load rule on the
		// DVS curve).
		if d.MeanLatency <= 2*zeroLoad {
			latRatioSum += d.MeanLatency / b.MeanLatency
			n++
		}
		if d.SavingsX > maxSav {
			maxSav = d.SavingsX
		}
		sumSav += d.SavingsX
		thrBase += b.ThroughputPkts
		thrDVS += d.ThroughputPkts
	}
	if n == 0 {
		n = 1
		latRatioSum = 1
	}
	t.AddRow("max power savings", "6.3X", fx(maxSav, 1))
	t.AddRow("avg power savings", "4.6X", fx(sumSav/float64(len(sweepRates)), 1))
	t.AddRow("latency increase (pre-saturation)", "+15.2%",
		fmt.Sprintf("%+.1f%%", 100*(latRatioSum/float64(n)-1)))
	t.AddRow("throughput change", "-2.5%",
		fmt.Sprintf("%+.1f%%", 100*(thrDVS/thrBase-1)))
	t.Notes = []string{
		"shape agreement: DVS wins multi-X power at a modest throughput cost;",
		"latency premium is larger here because the conservative link model keeps",
		"idle links at 125 MHz (8x serialization) and dead during re-locks",
	}
	return []Table{t}
}

func init() {
	register("saturation", "saturation throughput, DVS vs no-DVS (the -2.5% claim)", runSaturation)
}

// runSaturation locates each policy's saturation rate by bisection on the
// paper's 2x-zero-load rule and compares the throughput achieved there.
func runSaturation(ses *Session, o Options) []Table {
	t := Table{
		Title:  "Saturation throughput: history-based DVS vs no-DVS",
		Header: []string{"policy", "saturation rate", "throughput there", "zero-load lat"},
	}
	measure := func(policy network.PolicyKind) (rate, thr, zero float64) {
		zero = ses.run(defaultSpec(0.25, policy), o).MeanLatency
		lo, hi := 0.5, 12.0
		// The network must saturate by `hi`; verify, then bisect.
		if ses.run(defaultSpec(hi, policy), o).MeanLatency <= 2*zero {
			return hi, ses.run(defaultSpec(hi, policy), o).ThroughputPkts, zero
		}
		for i := 0; i < 5; i++ {
			mid := (lo + hi) / 2
			if ses.run(defaultSpec(mid, policy), o).MeanLatency > 2*zero {
				hi = mid
			} else {
				lo = mid
			}
		}
		r := ses.run(defaultSpec(hi, policy), o)
		return hi, r.ThroughputPkts, zero
	}
	// Each policy's bisection is inherently sequential, but the two
	// policies explore independent points — run them concurrently.
	var sat [2][3]float64
	policies := []network.PolicyKind{network.PolicyNone, network.PolicyHistory}
	ses.fanOut(len(policies), func(i int) {
		sat[i][0], sat[i][1], sat[i][2] = measure(policies[i])
	})
	rb, tb, zb := sat[0][0], sat[0][1], sat[0][2]
	rd, td, zd := sat[1][0], sat[1][1], sat[1][2]
	t.AddRow("no DVS", f(rb, 2), f(tb, 3), f(zb, 0))
	t.AddRow("history DVS", f(rd, 2), f(td, 3), f(zd, 0))
	t.Notes = []string{
		fmt.Sprintf("throughput delta at saturation: %+.1f%% (paper: -2.5%%)", 100*(td/tb-1)),
		fmt.Sprintf("zero-load latency delta: %+.1f%% (paper: +10.8%%)", 100*(zd/zb-1)),
	}
	return []Table{t}
}
