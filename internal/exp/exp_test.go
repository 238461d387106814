package exp

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/network"
)

// quick is the smoke budget shared by every experiment test here.
var quick = Options{Quick: true}

// skipSims gates the tests that run real quick-budget simulations (tens of
// seconds each on one core); `go test -short` keeps only the structural
// checks and the tinyBudget-based parallelism tests.
func skipSims(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("quick-budget simulation: skipped in -short")
	}
}

func cell(t *testing.T, tab Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tab.Rows[row][col], "X")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestListAndDescriptions(t *testing.T) {
	list := List()
	if len(list) < 18 {
		t.Fatalf("only %d experiments registered", len(list))
	}
	for _, line := range list {
		if len(strings.Fields(line)) < 2 {
			t.Errorf("experiment line %q lacks a description", line)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", quick); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "T", Header: []string{"a", "bb"}, Notes: []string{"note"}}
	tab.AddRow("1", "2")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== T ==", "a", "bb", "# note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestStaticTables(t *testing.T) {
	for _, id := range []string{"tab1", "tab2", "fig7", "orion", "noise"} {
		tabs, err := Run(id, quick)
		if err != nil || len(tabs) == 0 {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tabs[0].Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
	}
}

// TestFig3To5Shapes checks the Section 3.1 characterization: mean LU rises
// steadily with load while BU and BA stay near zero until congestion and
// then jump — the property that makes BU a congestion litmus.
func TestFig3To5Shapes(t *testing.T) {
	skipSims(t)
	ms := measures(quick)
	last := len(measureRates) - 1

	// LU means increase with load and move substantially overall.
	for i := 1; i <= last; i++ {
		if ms.lu[i].Mean() <= ms.lu[i-1].Mean() {
			t.Errorf("mean LU not increasing at rate point %d", i)
		}
	}
	if ms.lu[last].Mean()-ms.lu[0].Mean() < 0.3 {
		t.Errorf("LU range %.2f..%.2f too narrow", ms.lu[0].Mean(), ms.lu[last].Mean())
	}

	// BU is an indicator: flat and tiny pre-congestion, sharp rise at the
	// congested point.
	if ms.bu[1].Mean()-ms.bu[0].Mean() > 0.1 {
		t.Errorf("BU moved %.2f across light loads; should be insensitive",
			ms.bu[1].Mean()-ms.bu[0].Mean())
	}
	if ms.bu[last].Mean() < 2*ms.bu[1].Mean() {
		t.Errorf("BU did not spike under congestion: %.3f vs %.3f",
			ms.bu[last].Mean(), ms.bu[1].Mean())
	}

	// BA behaves like BU (which is why the paper picks BU: same signal,
	// easier to measure).
	if ms.ba[last].Mean() < 3*ms.ba[0].Mean() {
		t.Errorf("BA did not spike under congestion: %.1f vs %.1f",
			ms.ba[last].Mean(), ms.ba[0].Mean())
	}
}

// TestFig10Shape checks the headline figure: multi-X savings, bounded
// throughput loss, latency ordering.
func TestFig10Shape(t *testing.T) {
	skipSims(t)
	tabs, err := Run("fig10", quick)
	if err != nil || len(tabs) != 2 {
		t.Fatalf("fig10: %v (%d tables)", err, len(tabs))
	}
	perf, pow := tabs[0], tabs[1]
	for i := range perf.Rows {
		latBase, latDVS := cell(t, perf, i, 1), cell(t, perf, i, 2)
		if latDVS < latBase {
			t.Errorf("row %d: DVS latency %v below baseline %v", i, latDVS, latBase)
		}
		thrBase, thrDVS := cell(t, perf, i, 3), cell(t, perf, i, 4)
		// Pre-saturation rows track closely; past DVS saturation (the last
		// sweep point) the gap widens — that IS the throughput penalty.
		bound := 0.9
		if cell(t, perf, i, 0) > 4 {
			bound = 0.75
		}
		if thrDVS < bound*thrBase {
			t.Errorf("row %d: DVS throughput %.3f far below baseline %.3f", i, thrDVS, thrBase)
		}
	}
	// Savings at the lightest load are real. (The policy-frozen warmup —
	// what lets checkpointed sweeps share one warmup across policy
	// variants — leaves the 9-step descent from the power-on level
	// entirely inside the measurement window, and each downward step
	// costs a 10 us voltage ramp, so the quick budget's window is mostly
	// descent and steady-state savings are heavily underestimated; -full
	// removes the bias. See EXPERIMENTS.md note 3.)
	if sav := cell(t, pow, 0, 3); sav < 1.25 {
		t.Errorf("light-load savings = %.2f, want > 1.25X even at quick budget", sav)
	}
	first := cell(t, pow, 0, 2)
	lastRow := len(pow.Rows) - 1
	if lastVal := cell(t, pow, lastRow, 2); lastVal <= first {
		t.Errorf("normalized power not rising with load: %.3f .. %.3f", first, lastVal)
	}
}

// TestFig12Shape: power rises with throughput into congestion.
func TestFig12Shape(t *testing.T) {
	skipSims(t)
	tabs, err := Run("fig12", quick)
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	firstPwr := cell(t, tab, 0, 2)
	maxPwr := firstPwr
	for i := range tab.Rows {
		if p := cell(t, tab, i, 2); p > maxPwr {
			maxPwr = p
		}
	}
	if maxPwr <= firstPwr {
		t.Errorf("power never rose above the light-load point (%.1f)", firstPwr)
	}
	// Throughput saturates: the last point's throughput gain is far below
	// the injected-rate gain.
	thrFirst, thrLast := cell(t, tab, 0, 1), cell(t, tab, len(tab.Rows)-1, 1)
	rateFirst, rateLast := cell(t, tab, 0, 0), cell(t, tab, len(tab.Rows)-1, 0)
	if (thrLast-thrFirst)/(rateLast-rateFirst) > 0.8 {
		t.Error("network never saturated across the congestion sweep")
	}
}

// TestFig15Pareto: threshold aggressiveness buys power with latency.
func TestFig15Pareto(t *testing.T) {
	skipSims(t)
	tabs, err := Run("fig15", quick)
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if len(tab.Rows) != 6 {
		t.Fatalf("fig15 rows = %d, want 6 settings", len(tab.Rows))
	}
	savI := cell(t, tab, 0, 2)
	savVI := cell(t, tab, 5, 2)
	if savVI <= savI {
		t.Errorf("setting VI savings (%.2f) not above setting I (%.2f)", savVI, savI)
	}
}

// TestHeadlineTable: the abstract-comparison table carries all four rows.
func TestHeadlineTable(t *testing.T) {
	skipSims(t)
	tabs, err := Run("headline", quick)
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if len(tab.Rows) != 4 {
		t.Fatalf("headline rows = %d, want 4", len(tab.Rows))
	}
	// Quick-budget savings sit low because the DVS descent happens inside
	// the measurement window (EXPERIMENTS.md note 3); assert they are
	// still unmistakably present.
	if got := cell(t, tab, 0, 2); got < 1.25 {
		t.Errorf("max savings = %.1fX, want > 1.25X at quick budget", got)
	}
}

// TestPointAPI: the programmatic access point matches the cache.
func TestPointAPI(t *testing.T) {
	skipSims(t)
	a := Point(1.0, network.PolicyHistory, quick)
	b := Point(1.0, network.PolicyHistory, quick)
	if a != b {
		t.Error("Point not deterministic/cached")
	}
	if a.SavingsX <= 1 {
		t.Errorf("savings = %.2f, want > 1", a.SavingsX)
	}
}

// TestAblationLitmus: without the BU litmus, congested-network power is
// higher (the policy keeps pushing stalled links fast).
func TestAblationLitmus(t *testing.T) {
	skipSims(t)
	tabs, err := Run("abl-litmus", quick)
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	withSav := cell(t, tab, 0, 4)
	withoutSav := cell(t, tab, 1, 4)
	if withSav < withoutSav {
		t.Errorf("litmus savings %.2fX below ablation %.2fX — litmus should help under congestion",
			withSav, withoutSav)
	}
}

func TestFprintCSV(t *testing.T) {
	tab := Table{Title: "T", Header: []string{"a", "b"}, Notes: []string{"n"}}
	tab.AddRow("1", "x,y")
	var buf bytes.Buffer
	tab.FprintCSV(&buf)
	out := buf.String()
	for _, want := range []string{"# T", "a,b", `1,"x,y"`, "# n"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryCoversDesignIndex: every experiment id promised in DESIGN.md
// and the README exists in the registry.
func TestRegistryCoversDesignIndex(t *testing.T) {
	want := []string{
		"fig3", "fig4", "fig5", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "tab1", "tab2", "headline", "saturation",
		"abl-litmus", "abl-window", "abl-weight", "abl-adaptive",
		"abl-routing", "abl-levels", "abl-topology", "abl-routerpower",
		"orion", "noise",
	}
	for _, id := range want {
		if _, ok := registry[id]; !ok {
			t.Errorf("experiment %q promised but not registered", id)
		}
	}
	if len(registry) < len(want) {
		t.Errorf("registry has %d entries, want >= %d", len(registry), len(want))
	}
}

// TestSpecKeyIsComplete perturbs every spec field and every Options field
// (each of them reaches the simulation) and requires a new result key each
// time, so a field added later is keyed without anyone remembering to.
func TestSpecKeyIsComplete(t *testing.T) {
	s := defaultSpec(1.0, network.PolicyHistory)
	o := Options{Seed: 5}
	base := s.cacheKey(o)
	if (spec{}).cacheKey(Options{}) != (spec{}).cacheKey(Options{Seed: 1}) {
		t.Error("seed 0 and its resolved seed 1 key differently")
	}

	sv := reflect.ValueOf(&s).Elem()
	for i := 0; i < sv.NumField(); i++ {
		c := s
		f := reflect.ValueOf(&c).Elem().Field(i)
		perturb(t, reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem())
		if c.cacheKey(o) == base {
			t.Errorf("spec.%s does not reach the result key", sv.Type().Field(i).Name)
		}
	}
	ov := reflect.ValueOf(o)
	for i := 0; i < ov.NumField(); i++ {
		p := o
		perturb(t, reflect.ValueOf(&p).Elem().Field(i))
		if s.cacheKey(p) == base {
			t.Errorf("Options.%s does not reach the result key", ov.Type().Field(i).Name)
		}
	}
}
