package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/network"
)

// Figures 13-15 study the power/performance trade-off of the threshold
// settings in Table 2: sweeping the light-load band (TLLow, TLHigh) from
// conservative (I) to aggressive (VI) trades latency for power savings,
// tracing out a Pareto curve.

// thresholdRates are the pre-congestion load points of Figures 13/14.
var thresholdRates = []float64{1.0, 2.5, 4.0}

// fig15Rate is the fixed operating point of the Pareto curve: the paper
// uses 1.7 packets/cycle, ~80% of its saturation throughput; 4.0 sits at
// the same relative position on this platform.
const fig15Rate = 4.0

func init() {
	register("tab1", "policy parameters (Table 1)", runTab1)
	register("tab2", "threshold settings used in the trade-off study (Table 2)", runTab2)
	register("fig13", "latency under threshold settings I-VI", runFig13)
	register("fig14", "normalized power under threshold settings I-VI", runFig14)
	register("fig15", fmt.Sprintf("Pareto curve: latency vs power savings at rate %.1f", fig15Rate), runFig15)
}

func runTab1(*Session, Options) []Table {
	p := core.DefaultParams()
	t := Table{
		Title:  "Table 1: parameters of the history-based DVS policy",
		Header: []string{"W", "H", "B_congested", "TL_low", "TL_high", "TH_low", "TH_high"},
	}
	t.AddRow(fmt.Sprint(p.W), fmt.Sprint(p.H), f(p.BCongested, 1),
		f(p.TLLow, 1), f(p.TLHigh, 1), f(p.THLow, 1), f(p.THHigh, 1))
	return []Table{t}
}

func runTab2(*Session, Options) []Table {
	t := Table{
		Title:  "Table 2: thresholds used in trade-off analysis",
		Header: []string{"setting", "TL_low", "TL_high"},
	}
	for _, s := range core.Table2Settings() {
		t.AddRow(s.Name, f(s.TLLow, 2), f(s.TLHigh, 2))
	}
	return []Table{t}
}

// thresholdSpec builds a spec for one Table 2 setting at one rate.
func thresholdSpec(set core.ThresholdSetting, rate float64) spec {
	s := defaultSpec(rate, network.PolicyHistory)
	s.tlLow, s.tlHigh = set.TLLow, set.TLHigh
	return s
}

// thresholdGrid simulates the full (rate x Table 2 setting) cross-product
// across the worker slots and renders one cell per point. Rows assemble in
// fixed (rate, setting) order, so the table matches the sequential path
// byte for byte.
func thresholdGrid(ses *Session, o Options, title string, cell func(r network.Results) string, notes []string) Table {
	t := Table{Title: title}
	t.Header = []string{"rate"}
	settings := core.Table2Settings()
	for _, s := range settings {
		t.Header = append(t.Header, s.Name)
	}
	specs := make([]spec, 0, len(thresholdRates)*len(settings))
	for _, rate := range thresholdRates {
		for _, set := range settings {
			specs = append(specs, thresholdSpec(set, rate))
		}
	}
	res := ses.sweep(o, specs)
	for i, rate := range thresholdRates {
		row := []string{f(rate, 2)}
		for j := range settings {
			row = append(row, cell(res[i*len(settings)+j]))
		}
		t.AddRow(row...)
	}
	t.Notes = notes
	return t
}

func runFig13(ses *Session, o Options) []Table {
	return []Table{thresholdGrid(ses, o,
		"Figure 13: latency profile under DVS threshold settings (cycles)",
		func(r network.Results) string { return f(r.MeanLatency, 0) },
		[]string{"paper shape: more aggressive settings (I -> VI) raise latency"})}
}

func runFig14(ses *Session, o Options) []Table {
	return []Table{thresholdGrid(ses, o,
		"Figure 14: normalized power under DVS threshold settings",
		func(r network.Results) string { return f(r.NormalizedPwr, 3) },
		[]string{"paper shape: more aggressive settings (I -> VI) lower power"})}
}

func runFig15(ses *Session, o Options) []Table {
	t := Table{
		Title:  fmt.Sprintf("Figure 15: latency vs dynamic power savings at rate %.1f", fig15Rate),
		Header: []string{"setting", "latency(cycles)", "savings"},
	}
	type pt struct{ lat, sav float64 }
	settings := core.Table2Settings()
	specs := make([]spec, len(settings))
	for i, set := range settings {
		specs[i] = thresholdSpec(set, fig15Rate)
	}
	res := ses.sweep(o, specs)
	var pts []pt
	for i, set := range settings {
		r := res[i]
		t.AddRow(set.Name, f(r.MeanLatency, 0), f(r.SavingsX, 2)+"X")
		pts = append(pts, pt{r.MeanLatency, r.SavingsX})
	}
	// Check the Pareto property: savings rise monotonically I -> VI.
	mono := true
	for i := 1; i < len(pts); i++ {
		if pts[i].sav < pts[i-1].sav {
			mono = false
		}
	}
	note := "savings increase monotonically with threshold aggressiveness"
	if !mono {
		note = "savings are not strictly monotone at this budget (noise); rerun without -quick"
	}
	t.Notes = []string{
		note,
		"paper: an improvement in one metric can only be obtained by degrading the other",
	}
	return []Table{t}
}
