// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artifact, on the quick cycle budget) and the ablation
// studies from DESIGN.md. Unit costs of each substrate — router tick, link
// send, policy window, trace capture, a network cycle, the stores — are the
// per-layer metrics of the benchmark module (benchmarks/README.md).
//
// Macro benchmarks use a fresh seed per iteration so the experiment
// harness's memoization cannot shortcut repeated iterations; flagship
// benchmarks attach the reproduced headline metrics via b.ReportMetric.
package repro_test

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/network"
)

// benchExp runs one experiment per iteration with per-iteration seeds.
func benchExp(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(id, exp.Options{Quick: true, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper artifact -----------------------------------

func BenchmarkFig03LinkUtilization(b *testing.B)     { benchExp(b, "fig3") }
func BenchmarkFig04BufferUtilization(b *testing.B)   { benchExp(b, "fig4") }
func BenchmarkFig05BufferAge(b *testing.B)           { benchExp(b, "fig5") }
func BenchmarkFig07PowerBreakdown(b *testing.B)      { benchExp(b, "fig7") }
func BenchmarkFig08SpatialVariance(b *testing.B)     { benchExp(b, "fig8") }
func BenchmarkFig09TemporalVariance(b *testing.B)    { benchExp(b, "fig9") }
func BenchmarkFig12Congestion(b *testing.B)          { benchExp(b, "fig12") }
func BenchmarkFig13ThresholdLatency(b *testing.B)    { benchExp(b, "fig13") }
func BenchmarkFig14ThresholdPower(b *testing.B)      { benchExp(b, "fig14") }
func BenchmarkFig15ParetoCurve(b *testing.B)         { benchExp(b, "fig15") }
func BenchmarkFig16VoltageTransition(b *testing.B)   { benchExp(b, "fig16") }
func BenchmarkFig17FrequencyTransition(b *testing.B) { benchExp(b, "fig17") }
func BenchmarkTable1Parameters(b *testing.B)         { benchExp(b, "tab1") }
func BenchmarkTable2Thresholds(b *testing.B)         { benchExp(b, "tab2") }

// BenchmarkFig10DVS100Tasks regenerates the headline figure and reports
// the reproduced metrics of its central operating point.
func BenchmarkFig10DVS100Tasks(b *testing.B) {
	var last network.Results
	for i := 0; i < b.N; i++ {
		o := exp.Options{Quick: true, Seed: uint64(i + 1)}
		if _, err := exp.Run("fig10", o); err != nil {
			b.Fatal(err)
		}
		last = exp.Point(2.0, network.PolicyHistory, o)
	}
	b.ReportMetric(last.SavingsX, "savingsX")
	b.ReportMetric(last.MeanLatency, "latency-cycles")
}

func BenchmarkFig11DVS50Tasks(b *testing.B) { benchExp(b, "fig11") }

// BenchmarkHeadlineSavings reproduces the abstract's comparison table.
func BenchmarkHeadlineSavings(b *testing.B) {
	var maxSav float64
	for i := 0; i < b.N; i++ {
		o := exp.Options{Quick: true, Seed: uint64(i + 1)}
		if _, err := exp.Run("headline", o); err != nil {
			b.Fatal(err)
		}
		if s := exp.Point(0.5, network.PolicyHistory, o).SavingsX; s > maxSav {
			maxSav = s
		}
	}
	b.ReportMetric(maxSav, "max-savingsX")
}

// --- Ablation benches (design choices DESIGN.md calls out) --------------

func BenchmarkAblationNoBufferLitmus(b *testing.B)     { benchExp(b, "abl-litmus") }
func BenchmarkAblationWindowSize(b *testing.B)         { benchExp(b, "abl-window") }
func BenchmarkAblationWeight(b *testing.B)             { benchExp(b, "abl-weight") }
func BenchmarkAblationAdaptiveThresholds(b *testing.B) { benchExp(b, "abl-adaptive") }
func BenchmarkAblationRouting(b *testing.B)            { benchExp(b, "abl-routing") }
func BenchmarkAblationLevels(b *testing.B)             { benchExp(b, "abl-levels") }
func BenchmarkAblationTopology(b *testing.B)           { benchExp(b, "abl-topology") }
func BenchmarkAblationRouterPower(b *testing.B)        { benchExp(b, "abl-routerpower") }
func BenchmarkSaturationThroughput(b *testing.B)       { benchExp(b, "saturation") }
func BenchmarkOrionCrossCheck(b *testing.B)            { benchExp(b, "orion") }
func BenchmarkNoiseMargin(b *testing.B)                { benchExp(b, "noise") }

// --- Parallel harness benchmarks -----------------------------------------

// benchFigures regenerates a representative artifact pair (the headline
// DVS sweep and a threshold grid — 30 distinct simulation points) from a
// cold cache at a fixed parallelism level.
func benchFigures(b *testing.B, jobs int) {
	b.Helper()
	exp.SetParallelism(jobs)
	defer exp.SetParallelism(0)
	for i := 0; i < b.N; i++ {
		exp.ResetCaches()
		o := exp.Options{Quick: true, Seed: uint64(i + 1)}
		for _, id := range []string{"fig10", "fig13"} {
			if _, err := exp.Run(id, o); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFiguresSequential pins the experiment executor to one worker:
// the pre-parallelism baseline.
func BenchmarkFiguresSequential(b *testing.B) { benchFigures(b, 1) }

// BenchmarkFiguresParallel lets the executor use every core; compare
// against BenchmarkFiguresSequential to see the worker-pool speedup (on a
// multi-core machine it approaches min(GOMAXPROCS, points) before memory
// bandwidth intervenes).
func BenchmarkFiguresParallel(b *testing.B) { benchFigures(b, 0) }
