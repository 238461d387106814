package exp

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/sim"
)

// Figures 16 and 17 explore DVS links with varying transition rates
// (Section 4.4.3): voltage transition delay in [1 us, 10 us], frequency
// transition delay in [10, 100] link cycles, against workloads of 1 ms and
// 10 us average task duration. Faster transitions track bursty traffic
// better, trading less latency and throughput for the same policy.

var transitionRates = []float64{1.0, 2.0, 3.0, 4.0}

func init() {
	register("fig16", "network performance with varying voltage transition delay", runFig16)
	register("fig17", "network performance with varying frequency transition delay", runFig17)
}

// transitionTable sweeps one transition parameter at fixed workload: the
// whole (rate x column) grid simulates concurrently, rows assemble in
// fixed order.
func transitionTable(ses *Session, o Options, title string, cols []string, mk func(col int, rate float64) spec) Table {
	t := Table{Title: title}
	t.Header = append([]string{"rate"}, cols...)
	specs := make([]spec, 0, len(transitionRates)*len(cols))
	for _, rate := range transitionRates {
		for c := range cols {
			specs = append(specs, mk(c, rate))
		}
	}
	res := ses.sweep(o, specs)
	for i, rate := range transitionRates {
		row := []string{f(rate, 2)}
		for c := range cols {
			r := res[i*len(cols)+c]
			row = append(row, fmt.Sprintf("%s/%s", f(r.MeanLatency, 0), f(r.ThroughputPkts, 2)))
		}
		t.AddRow(row...)
	}
	t.Notes = []string{"cells are latency(cycles)/throughput(pkts/cycle)"}
	return t
}

func runFig16(ses *Session, o Options) []Table {
	voltDelays := []sim.Duration{10 * sim.Microsecond, 5 * sim.Microsecond, 1 * sim.Microsecond}
	cols := []string{"Vtran=10us", "Vtran=5us", "Vtran=1us"}
	sub := func(label string, taskDur sim.Duration, freqTran int) Table {
		return transitionTable(ses, o,
			fmt.Sprintf("Figure 16%s: task duration %v, frequency transition %d cycles",
				label, taskDur, freqTran),
			cols,
			func(c int, rate float64) spec {
				s := defaultSpec(rate, network.PolicyHistory)
				s.taskDur = taskDur
				s.voltTran = voltDelays[c]
				s.freqTran = freqTran
				return s
			})
	}
	// The four subfigures are independent grids; build them concurrently.
	var tabs [4]Table
	parts := []struct {
		label    string
		taskDur  sim.Duration
		freqTran int
	}{
		{"(a)", sim.Millisecond, 100},
		{"(b)", 10 * sim.Microsecond, 100},
		{"(c)", sim.Millisecond, 10},
		{"(d)", 10 * sim.Microsecond, 10},
	}
	ses.fanOut(len(parts), func(i int) {
		tabs[i] = sub(parts[i].label, parts[i].taskDur, parts[i].freqTran)
	})
	tabs[1].Notes = append(tabs[1].Notes,
		"paper shape: short tasks + slow voltage transitions hurt throughput most")
	tabs[0].Notes = append(tabs[0].Notes,
		"paper: with slow 100-cycle locks, faster voltage transitions can RAISE latency",
		"(more frequent transitions mean more dead re-lock windows)")
	return tabs[:]
}

func runFig17(ses *Session, o Options) []Table {
	freqDelays := []int{100, 50, 10}
	cols := []string{"Ftran=100cyc", "Ftran=50cyc", "Ftran=10cyc"}
	sub := func(label string, taskDur sim.Duration, voltTran sim.Duration) Table {
		return transitionTable(ses, o,
			fmt.Sprintf("Figure 17%s: task duration %v, voltage transition %v",
				label, taskDur, voltTran),
			cols,
			func(c int, rate float64) spec {
				s := defaultSpec(rate, network.PolicyHistory)
				s.taskDur = taskDur
				s.voltTran = voltTran
				s.freqTran = freqDelays[c]
				return s
			})
	}
	var tabs [4]Table
	parts := []struct {
		label    string
		taskDur  sim.Duration
		voltTran sim.Duration
	}{
		{"(a)", sim.Millisecond, 10 * sim.Microsecond},
		{"(b)", 10 * sim.Microsecond, 10 * sim.Microsecond},
		{"(c)", sim.Millisecond, 1 * sim.Microsecond},
		{"(d)", 10 * sim.Microsecond, 1 * sim.Microsecond},
	}
	ses.fanOut(len(parts), func(i int) {
		tabs[i] = sub(parts[i].label, parts[i].taskDur, parts[i].voltTran)
	})
	tabs[1].Notes = append(tabs[1].Notes,
		"paper shape: short tasks respond slowly to transitions, degrading throughput")
	return tabs[:]
}
