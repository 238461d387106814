package exp

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/power"
	"repro/internal/router"
	"repro/internal/sim"
)

// Ablations beyond the paper's figures, probing the design choices the
// paper argues for in prose: the buffer-utilization congestion litmus
// (Section 3.1), the history window H and EWMA weight W (Table 1), the
// dynamically-adjusted thresholds Section 4.4.2 points to, and the routing
// protocol under DVS.

const ablationRate = 3.0 // a loaded but clearly pre-saturation operating point

func init() {
	register("abl-litmus", "ablation: policy without the BU congestion litmus", runAblLitmus)
	register("abl-window", "ablation: history window H in {50, 200, 800}", runAblWindow)
	register("abl-weight", "ablation: EWMA weight W in {1, 3, 7}", runAblWeight)
	register("abl-adaptive", "extension: dynamically adjusted thresholds (Sec 4.4.2)", runAblAdaptive)
	register("abl-routing", "ablation: deterministic vs adaptive routing under DVS", runAblRouting)
}

func resultRow(t *Table, label string, r network.Results) {
	t.AddRow(label, f(r.MeanLatency, 0), f(r.ThroughputPkts, 3),
		f(r.NormalizedPwr, 3), f(r.SavingsX, 2)+"X")
}

func perfHeader() []string {
	return []string{"variant", "latency", "throughput", "norm power", "savings"}
}

// variantTable simulates labeled spec variants concurrently and renders one
// result row per variant, in input order.
func variantTable(ses *Session, o Options, title string, labels []string, specs []spec, notes []string) Table {
	t := Table{Title: title, Header: perfHeader(), Notes: notes}
	res := ses.sweep(o, specs)
	for i, label := range labels {
		resultRow(&t, label, res[i])
	}
	return t
}

func runAblLitmus(ses *Session, o Options) []Table {
	// Compare at a congesting rate, where the litmus matters.
	rate := 6.0
	return []Table{variantTable(ses, o, "Ablation: buffer-utilization congestion litmus",
		[]string{"history-DVS (with litmus)", "link-util only (no litmus)"},
		[]spec{
			defaultSpec(rate, network.PolicyHistory),
			defaultSpec(rate, network.PolicyLinkUtilOnly),
		},
		[]string{
			"under congestion the litmus harvests power from stalled links whose delay is hidden;",
			"without it the policy keeps pushing stalled links fast, wasting power (Sec 3.1)",
		})}
}

func runAblWindow(ses *Session, o Options) []Table {
	var labels []string
	var specs []spec
	for _, h := range []int{50, 200, 800} {
		s := defaultSpec(ablationRate, network.PolicyHistory)
		s.dvsH = h
		labels = append(labels, fmt.Sprintf("H=%d", h))
		specs = append(specs, s)
	}
	return []Table{variantTable(ses, o, "Ablation: history window size H", labels, specs, []string{
		"short windows chase noise (more transitions); long windows lag traffic shifts",
	})}
}

func runAblWeight(ses *Session, o Options) []Table {
	var labels []string
	var specs []spec
	for _, w := range []int{1, 3, 7} {
		s := defaultSpec(ablationRate, network.PolicyHistory)
		s.dvsW = w
		labels = append(labels, fmt.Sprintf("W=%d", w))
		specs = append(specs, s)
	}
	return []Table{variantTable(ses, o, "Ablation: EWMA weight W", labels, specs, []string{
		"low W weights history (smooth, slow); high W weights the current window (fast, noisy);",
		"the paper picks W=3 so the hardware divide reduces to a shift",
	})}
}

func runAblAdaptive(ses *Session, o Options) []Table {
	var labels []string
	var specs []spec
	for _, rate := range []float64{0.5, 1.5} {
		labels = append(labels,
			fmt.Sprintf("static III @%.1f", rate),
			fmt.Sprintf("adaptive I-VI @%.1f", rate))
		specs = append(specs,
			defaultSpec(rate, network.PolicyHistory),
			defaultSpec(rate, network.PolicyAdaptiveThresholds))
	}
	return []Table{variantTable(ses, o, "Extension: dynamically adjusted thresholds (Sec 4.4.2)",
		labels, specs, []string{
			"the adaptive controller walks Table 2 settings online: aggressive when buffers",
			"stay empty, conservative when pressure builds",
		})}
}

func runAblRouting(ses *Session, o Options) []Table {
	var labels []string
	var specs []spec
	for _, alg := range []string{"dor", "adaptive"} {
		s := defaultSpec(ablationRate, network.PolicyHistory)
		s.routing = alg
		labels = append(labels, alg)
		specs = append(specs, s)
	}
	return []Table{variantTable(ses, o, "Ablation: routing protocol under history-based DVS",
		labels, specs, []string{
			"adaptive routing spreads load across productive ports, smoothing per-link",
			"utilization seen by the DVS policy",
		})}
}

func init() {
	register("abl-routerpower", "check: router-core power barely varies with DVS (Sec 4.2)", runAblRouterPower)
}

// routerPowerPayload is the persistent form of one router-power variant.
type routerPowerPayload struct {
	CoreW, LinkW float64
}

// measureRouterPower simulates one policy variant, warming up with the
// policy live rather than through the shared held stage (EXPERIMENTS.md
// measures the difference), and reports mean router-core and link power
// over the measurement window.
func measureRouterPower(ses *Session, s spec, o Options, warm, meas int64) (coreW, linkW float64) {
	ses.withSimSlot(func() {
		cfg := s.config(o)
		horizon := sim.Time(warm+meas+1) * cfg.RouterPeriod
		m, _, err := ses.workload(cfg, s.twoLevelParams(o), horizon)
		if err != nil {
			panic(err)
		}
		n, err := network.New(cfg)
		if err != nil {
			panic(err)
		}
		model := power.NewRouterEnergyModel(n.Table, 4, n.Cfg.RouterPeriod)
		n.Launch(m, horizon)
		n.Run(warm)
		base := make([]router.Activity, len(n.Routers))
		for i, r := range n.Routers {
			base[i] = r.ActivitySnapshot()
		}
		n.BeginMeasurement()
		n.Run(meas)
		elapsed := sim.Duration(meas) * n.Cfg.RouterPeriod
		coreJ := 0.0
		for i, r := range n.Routers {
			a := r.ActivitySnapshot()
			d := router.Activity{
				BufWrites: a.BufWrites - base[i].BufWrites,
				BufReads:  a.BufReads - base[i].BufReads,
				Crossbar:  a.Crossbar - base[i].Crossbar,
				ArbGrants: a.ArbGrants - base[i].ArbGrants,
			}
			coreJ += model.EnergyJ(d, elapsed)
		}
		r := n.Snapshot()
		coreW, linkW = coreJ/elapsed.Seconds(), r.AvgPowerW
	})
	return coreW, linkW
}

// runAblRouterPower quantifies the claim the paper uses to justify ignoring
// router power: DVS slows links, which can only add arbitration retries —
// the cheapest router event — while buffer and crossbar energy track the
// flits moved, which DVS does not change.
func runAblRouterPower(ses *Session, o Options) []Table {
	t := Table{
		Title:  "Check: router-core power with and without DVS links (Sec 4.2)",
		Header: []string{"variant", "router core (W)", "links (W)", "core delta", "link delta"},
	}
	warm, meas := ses.budget(o)
	measureOne := func(policy network.PolicyKind) (float64, float64) {
		s := defaultSpec(2.0, policy)
		p := cached(ses, "ablrouterpower|"+ses.cacheKey(s, o), func() (p routerPowerPayload) {
			p.CoreW, p.LinkW = measureRouterPower(ses, s, o, warm, meas)
			return p
		})
		return p.CoreW, p.LinkW
	}
	// The two variants are independent simulations; run them concurrently.
	var coreBase, linkBase, coreDVS, linkDVS float64
	ses.fanOut(2, func(i int) {
		if i == 0 {
			coreBase, linkBase = measureOne(network.PolicyNone)
		} else {
			coreDVS, linkDVS = measureOne(network.PolicyHistory)
		}
	})
	t.AddRow("no DVS", f(coreBase, 1), f(linkBase, 1), "--", "--")
	t.AddRow("history DVS", f(coreDVS, 1), f(linkDVS, 1),
		fmt.Sprintf("%+.1f%%", 100*(coreDVS/coreBase-1)),
		fmt.Sprintf("%+.1f%%", 100*(linkDVS/linkBase-1)))
	t.Notes = []string{
		"paper: \"router power consumption does not vary much with and without DVS links\",",
		"so the evaluation ignores it; this table verifies the claim on this platform",
	}
	return []Table{t}
}

func init() {
	register("abl-levels", "ablation: DVS level granularity (transition-step characteristic)", runAblLevels)
	register("abl-topology", "ablation: history-based DVS across topologies", runAblTopology)
}

// runAblLevels varies the number of discrete (f, V) levels — the paper's
// fourth DVS-link characteristic, "whether the link supports a continuous
// range of voltages, or only a fixed number of levels". More levels
// approximate a continuous regulator: smaller steps track demand tighter
// but each adjustment still pays a voltage ramp.
func runAblLevels(ses *Session, o Options) []Table {
	var labels []string
	var specs []spec
	for _, lv := range []int{4, 10, 20, 40} {
		s := defaultSpec(ablationRate, network.PolicyHistory)
		s.levels = lv
		labels = append(labels, fmt.Sprintf("%d levels", lv))
		specs = append(specs, s)
	}
	return []Table{variantTable(ses, o, "Ablation: DVS level granularity", labels, specs, []string{
		"the paper's links quantize to 10 levels; a continuous-voltage regulator",
		"(many levels) changes the step size, not the 10 us ramp that dominates",
	})}
}

// runAblTopology runs the policy on different k-ary n-cubes at the same
// aggregate load.
func runAblTopology(ses *Session, o Options) []Table {
	shapes := []struct {
		label string
		k, n  int
		torus bool
	}{
		{"8x8 mesh (paper)", 8, 2, false},
		{"8x8 torus", 8, 2, true},
		{"4x4x4 mesh", 4, 3, false},
	}
	var labels []string
	var specs []spec
	for _, sh := range shapes {
		s := defaultSpec(1.5, network.PolicyHistory)
		s.k, s.n, s.torus = sh.k, sh.n, sh.torus
		labels = append(labels, sh.label)
		specs = append(specs, s)
	}
	return []Table{variantTable(ses, o, "Ablation: history-based DVS across topologies",
		labels, specs, []string{
			"tori and higher dimensions shorten paths, lowering per-link utilization",
			"and shifting the policy's operating levels",
		})}
}
