// Probe exp measures the experiment harness in the two ways no end-to-end
// workload can on a shared 2-CPU host: the wall-clock gain of a cold sweep
// at -j 2 with GOMAXPROCS=2 over -j 1 (labelled by harness.nproc, never
// gated), and how far the reproduction stands from the paper: the relative
// error of an untimed fig10 -quick pass against the paper's 6.3X maximum
// and 4.6X average power savings and its +15.2 % latency premium before
// congestion. The error is stated beside every simulated speed-up so that
// a faster simulator that drifted from the paper shows.
package main

import (
	"encoding/csv"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/benchmarks/internal/harness"
	"repro/internal/exp"
	"repro/noc"
)

// The paper's headline numbers for the 100-task workload (Section 4.3).
const (
	paperSavingsMax     = 6.3
	paperSavingsAvg     = 4.6
	paperLatencyPremium = 0.152
)

// coldSweep times one cold regeneration of the sweep workloads' experiment
// (no result store: its seven writes are some 10 ms of several seconds).
func coldSweep(j int) float64 {
	runtime.GOMAXPROCS(j)
	noc.SetExperimentParallelism(j)
	exp.ResetCaches()
	t := time.Now()
	if _, err := noc.RunExperiments([]string{"fig15"}, noc.ExperimentOptions{Quick: true, Seed: 1}, false); err != nil {
		harness.Fatal(err)
	}
	return time.Since(t).Seconds()
}

// tables splits RunExperimentCSV output into one header-plus-rows grid per
// table, dropping the title and note lines.
func tables(out string) ([][][]string, error) {
	var all [][][]string
	for _, block := range strings.Split(strings.TrimSpace(out), "\n\n") {
		var data []string
		for _, line := range strings.Split(block, "\n") {
			if !strings.HasPrefix(line, "#") && line != "" {
				data = append(data, line)
			}
		}
		rows, err := csv.NewReader(strings.NewReader(strings.Join(data, "\n"))).ReadAll()
		if err != nil {
			return nil, err
		}
		all = append(all, rows)
	}
	return all, nil
}

func num(s string) float64 {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "X"), 64)
	if err != nil {
		harness.Fatal(fmt.Errorf("fig10 cell %q is not a number", s))
	}
	return v
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / want }

func main() {
	m := harness.Metrics{}
	j1 := coldSweep(1)
	j2 := coldSweep(2)
	m.Set("exp.j2_speedup_x", j1/j2, "x")

	var sb strings.Builder
	if err := noc.RunExperimentCSV("fig10", noc.ExperimentOptions{Quick: true, Seed: 1}, &sb); err != nil {
		harness.Fatal(err)
	}
	tabs, err := tables(sb.String())
	if err != nil || len(tabs) != 2 || len(tabs[0]) < 2 || len(tabs[0]) != len(tabs[1]) ||
		len(tabs[0][0]) != 6 || len(tabs[1][0]) != 4 {
		harness.Fatal(fmt.Errorf("fig10 CSV has not the two tables (rate, lat, lat, thr, thr, ratio) and (rate, power, power, savings): %v", err))
	}
	// Rows before congestion: no-DVS latency under twice the zero-load one.
	lat, pow := tabs[0][1:], tabs[1][1:]
	zeroLoad := num(lat[0][1])
	var savMax, savSum, premSum float64
	var pre int
	for i := range lat {
		s := num(pow[i][3])
		savMax = math.Max(savMax, s)
		if num(lat[i][1]) < 2*zeroLoad {
			savSum += s
			premSum += num(lat[i][5]) - 1
			pre++
		}
	}
	m.Set("exp.paper_err_savings_max", relErr(savMax, paperSavingsMax), "fraction")
	m.Set("exp.paper_err_savings_avg", relErr(savSum/float64(pre), paperSavingsAvg), "fraction")
	m.Set("exp.paper_err_latency_premium", relErr(premSum/float64(pre), paperLatencyPremium), "fraction")
	harness.ProbeOutput{Metrics: m}.Emit()
}
