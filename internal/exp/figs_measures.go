package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Figures 3-5 characterize the candidate DVS measures — link utilization,
// input-buffer utilization and input-buffer age — on one mesh link as
// network load rises (Section 3.1). The paper samples a link of the 8x8
// mesh every 50 cycles under the two-level workload, without DVS (links at
// full speed): the profiles motivate the policy design.

// measureRates are the load points, rising from light (a) to congested
// (d), placed relative to this platform's ~5 packets/cycle saturation as
// the paper's 4 points are to its ~2.1.
var measureRates = []float64{0.5, 2.0, 4.0, 8.0}

const measureWindow = 50 // cycles, the paper's H=50 sampling

// measureSet holds the per-rate histograms of one characterization run.
type measureSet struct {
	lu, bu, ba []*stats.Histogram // indexed by rate point
}

// measurePayload is the persistent form of a measureSet (exported fields
// for JSON; histograms carry their own wire encoding).
type measurePayload struct {
	LU, BU, BA []*stats.Histogram
}

// measuresKey canonicalizes the whole characterization: the sampling
// window plus the full spec of every rate point, so editing either the
// rate list or any platform default re-simulates the set.
func measuresKey(ses *Session, o Options) string {
	key := fmt.Sprintf("measures|window=%d", measureWindow)
	for _, rate := range measureRates {
		key += "|" + ses.cacheKey(defaultSpec(rate, network.PolicyNone), o)
	}
	return key
}

// measures runs the per-rate characterizations, one independent simulation
// per rate point fanned across the worker slots; the session's
// measureCache deduplicates concurrent callers so fig3, fig4 and fig5 in
// one session share a single simulation set, and the persistent layer
// shares it across processes.
func measures(ses *Session, o Options) *measureSet {
	return ses.measureCache.do(o, func() *measureSet {
		p := cached(ses, measuresKey(ses, o), func() measurePayload {
			p := measurePayload{
				LU: make([]*stats.Histogram, len(measureRates)),
				BU: make([]*stats.Histogram, len(measureRates)),
				BA: make([]*stats.Histogram, len(measureRates)),
			}
			ses.fanOut(len(measureRates), func(i int) {
				p.LU[i], p.BU[i], p.BA[i] = measureOneRate(ses, measureRates[i], o)
			})
			return p
		})
		return &measureSet{lu: p.LU, bu: p.BU, ba: p.BA}
	})
}

// measureOneRate characterizes one load point: it forks the platform
// without DVS from the rate's shared warm-up (the sweep points' warm key)
// and samples the tracked link every measureWindow cycles of the
// measurement. Releasing the warm-up's hold drained the link's windows at
// the last warm-up edge, so the first sample covers exactly one window.
func measureOneRate(ses *Session, rate float64, o Options) (lu, bu, ba *stats.Histogram) {
	ses.withSimSlot(func() {
		lu = stats.NewHistogram(0, 1, 10)
		bu = stats.NewHistogram(0, 1, 10)
		ba = stats.NewHistogram(0, 100, 10) // cycles in buffer

		s := defaultSpec(rate, network.PolicyNone)
		warm, meas := ses.budget(o)
		n, err := ses.warmed(s.config(o), s.twoLevelParams(o), warm, meas, !ses.noCheckpoint, true)
		if err != nil {
			panic(err)
		}
		// The tracked link: the +x channel out of central node (3,3), and
		// the input buffers downstream of it at node (4,3).
		src := n.Topo.NodeAt(3, 3)
		dst := n.Topo.NodeAt(4, 3)
		l := n.LinkAt(src, 0, topology.Plus)
		outPort := n.Routers[src].Outputs[n.Topo.PortFor(0, topology.Plus)]
		inPort := n.Routers[dst].Inputs[n.Topo.PortFor(0, topology.Minus)]

		window := sim.Duration(measureWindow) * n.Cfg.RouterPeriod
		for range meas / measureWindow {
			n.Run(measureWindow)
			now := n.Now()
			busy, dead := l.TakeUtilization(now)
			lu.Add(core.LinkUtilization(busy, window-dead))
			bu.Add(core.BufferUtilization(outPort.TakeOccupancyIntegral(now), outPort.TotalSlots(), window))
			if res, dep := inPort.TakeAgeWindow(); dep > 0 {
				ba.Add(core.BufferAge(res, dep) / float64(n.Cfg.RouterPeriod))
			}
		}
	})
	return lu, bu, ba
}

// histTable renders per-rate histograms side by side, one row per bin.
func histTable(title, measure string, hists []*stats.Histogram, notes []string) Table {
	t := Table{Title: title, Notes: notes}
	t.Header = []string{measure}
	for _, r := range measureRates {
		t.Header = append(t.Header, fmt.Sprintf("rate=%.1f", r))
	}
	for b := 0; b < hists[0].Bins(); b++ {
		row := []string{fmt.Sprintf("%.2f", hists[0].BinCenter(b))}
		for _, h := range hists {
			row = append(row, f(h.Fraction(b), 3))
		}
		t.AddRow(row...)
	}
	row := []string{"mean"}
	for _, h := range hists {
		row = append(row, f(h.Mean(), 3))
	}
	t.AddRow(row...)
	return t
}

func init() {
	register("fig3", "link utilization profile vs load (H=50 sampling)", func(ses *Session, o Options) []Table {
		ms := measures(ses, o)
		return []Table{histTable(
			"Figure 3: link utilization profile (fraction of samples per LU bin)",
			"LU bin", ms.lu, []string{
				"paper shape: LU low at light load, rises with load, dips when congested",
			})}
	})
	register("fig4", "input buffer utilization profile vs load", func(ses *Session, o Options) []Table {
		ms := measures(ses, o)
		return []Table{histTable(
			"Figure 4: input buffer utilization profile (fraction of samples per BU bin)",
			"BU bin", ms.bu, []string{
				"paper shape: BU near zero until congestion, then rises sharply",
				"paper: light->high load moves mean BU by ~0.1 while mean LU moves >0.8",
			})}
	})
	register("fig5", "input buffer age profile vs load", func(ses *Session, o Options) []Table {
		ms := measures(ses, o)
		return []Table{histTable(
			"Figure 5: input buffer age profile (fraction of samples per age bin, cycles)",
			"age bin", ms.ba, []string{
				"paper shape: ages small until congestion, then flits stall for a long time",
			})}
	})
	register("fig8", "spatial variance of the injected workload", runFig8)
	register("fig9", "temporal variance of injections at one router", runFig9)
}

// fig8Payload is the persistent form of the spatial-variance measurement:
// injection counts laid out as Grid[y][x], so rendering needs no topology.
type fig8Payload struct {
	Grid [][]int64
}

// binCycles is the width of fig9's injection bins, in router cycles.
const binCycles = 100

// measuredInjections counts, per source node in binCycles-cycle bins, the
// arrivals of s's workload that a run of the session's budget injects
// while it measures: timestamps in ((warm-1)·P, (warm+meas-1)·P], the span
// the measured cycles' edges deliver (the part before warm·P truncates
// into bin 0). Which arrivals a workload makes does not depend on the
// network, so they are read off the session's memoized trace, or off one
// captured here when the session drives the model live.
func measuredInjections(ses *Session, s spec, o Options) [][]float64 {
	warm, meas := ses.budget(o)
	cfg := s.config(o)
	horizon := sim.Time(warm+meas+1) * cfg.RouterPeriod
	perNode := make([][]float64, topology.New(cfg.K, cfg.N, cfg.Torus).Nodes())
	for i := range perNode {
		perNode[i] = make([]float64, meas/binCycles+1)
	}
	ses.withSimSlot(func() {
		m, tr, err := ses.workload(cfg, s.twoLevelParams(o), horizon)
		if err != nil {
			panic(err)
		}
		if tr == nil {
			tr = traffic.Capture(m, horizon)
		}
		from, to := sim.Time(warm-1)*cfg.RouterPeriod, sim.Time(warm+meas-1)*cfg.RouterPeriod
		for i := range tr.Len() {
			a := tr.At(i)
			if a.At > to {
				break
			}
			if a.At > from {
				perNode[a.Src][int((a.At-sim.Time(warm)*cfg.RouterPeriod)/(binCycles*cfg.RouterPeriod))]++
			}
		}
	})
	return perNode
}

// runFig8 snapshots per-node injection rates under the two-level workload.
func runFig8(ses *Session, o Options) []Table {
	s := defaultSpec(1.0, network.PolicyNone)
	_, meas := ses.budget(o)
	p := cached(ses, ses.prefixedKey("fig8|", s, o), func() (p fig8Payload) {
		perNode := measuredInjections(ses, s, o)
		cfg := s.config(o)
		topo := topology.New(cfg.K, cfg.N, cfg.Torus)
		p.Grid = make([][]int64, cfg.K)
		for y := range p.Grid {
			p.Grid[y] = make([]int64, cfg.K)
			for x := range p.Grid[y] {
				for _, c := range perNode[topo.NodeAt(x, y)] {
					p.Grid[y][x] += int64(c)
				}
			}
		}
		return p
	})

	t := Table{Title: "Figure 8: spatial variance of injected load (packets/cycle per node)"}
	t.Header = []string{"y\\x"}
	for x := range p.Grid {
		t.Header = append(t.Header, fmt.Sprintf("x=%d", x))
	}
	var st stats.Stream
	for y, row := range p.Grid {
		cells := []string{fmt.Sprintf("y=%d", y)}
		for _, count := range row {
			r := float64(count) / float64(meas)
			st.Add(r)
			cells = append(cells, f(r, 4))
		}
		t.AddRow(cells...)
	}
	cv := 0.0
	if st.Mean() > 0 {
		cv = st.Std() / st.Mean()
	}
	t.Notes = []string{
		fmt.Sprintf("coefficient of variation across nodes: %.2f (uniform traffic would be ~0)", cv),
		"paper shape: task placement makes injected load strongly non-uniform in space",
	}
	return []Table{t}
}

// fig9Payload is the persistent form of the temporal-variance measurement:
// the busiest node's binned injection series plus the network aggregate.
type fig9Payload struct {
	Busiest int
	Bins    []float64
	Agg     []float64
}

// runFig9 profiles the injection process of one router over time and
// verifies its long-range dependence. It profiles whichever router
// injected the most during the measurement window, so the profile always
// carries signal (a fixed node may host no task session under some seeds).
func runFig9(ses *Session, o Options) []Table {
	s := defaultSpec(1.0, network.PolicyNone)
	p := cached(ses, ses.prefixedKey("fig9|", s, o), func() (p fig9Payload) {
		perNode := measuredInjections(ses, s, o)
		busiest, best := 0, -1.0
		for node, bs := range perNode {
			sum := 0.0
			for _, c := range bs {
				sum += c
			}
			if sum > best {
				best, busiest = sum, node
			}
		}
		p.Busiest = busiest
		p.Bins = perNode[busiest]
		// Network-wide aggregate: the statistically meaningful LRD check at
		// scaled budgets (one node's window holds too few ON/OFF cycles for
		// a stable Hurst estimate).
		p.Agg = make([]float64, len(p.Bins))
		for _, bs := range perNode {
			for i, c := range bs {
				p.Agg[i] += c
			}
		}
		return p
	})
	busiest, bins := p.Busiest, p.Bins

	t := Table{Title: fmt.Sprintf(
		"Figure 9: temporal variance of injected load at the busiest router (node %d)", busiest)}
	t.Header = []string{"interval", "packets/cycle"}
	// Coarse 24-segment profile of the injection rate over time.
	const segments = 24
	seg := len(bins) / segments
	if seg < 1 {
		seg = 1
	}
	for i := 0; i < segments && i*seg < len(bins); i++ {
		sum := 0.0
		cnt := 0
		for j := i * seg; j < (i+1)*seg && j < len(bins); j++ {
			sum += bins[j]
			cnt++
		}
		t.AddRow(fmt.Sprintf("t%02d", i), f(sum/float64(cnt*binCycles), 4))
	}
	var st stats.Stream
	for _, b := range bins {
		st.Add(b)
	}
	cv := 0.0
	if st.Mean() > 0 {
		cv = st.Std() / st.Mean()
	}
	t.Notes = []string{
		fmt.Sprintf("per-%d-cycle bins at node %d: mean=%.2f pkts, CV=%.2f", binCycles, busiest, st.Mean(), cv),
		fmt.Sprintf("Hurst: node %.2f, network aggregate %.2f (LRD when > 0.5; single-node",
			stats.HurstAggVar(bins), stats.HurstAggVar(p.Agg)),
		"estimates are noisy at scaled budgets — internal/traffic tests verify H > 0.6",
		"over longer horizons); paper shape: bursty across time scales",
	}
	return []Table{t}
}
