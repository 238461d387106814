package network

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/traffic"
)

// runForEquivalence executes one warmup+measurement run of the paper's
// platform and returns everything an equivalence check should compare:
// the formatted Results snapshot, the cycle counter, the simulation clock,
// per-link energy, and the final DVS level of every link.
func runForEquivalence(t *testing.T, rate float64, noskip bool, cycles int64) (snapshot string, state string) {
	t.Helper()
	cfg := NewConfig()
	cfg.Policy = PolicyHistory
	n := mustNew(t, cfg)
	if noskip {
		useNoSkip(t, n)
	}

	p := traffic.NewTwoLevelParams(rate)
	p.Seed = 7
	m, err := traffic.NewTwoLevel(p, n.Topo)
	if err != nil {
		t.Fatal(err)
	}
	horizon := sim.Time(2*cycles+1) * cfg.RouterPeriod
	n.Launch(m, horizon)
	n.Run(cycles)
	n.BeginMeasurement()
	n.Run(cycles)

	snapshot = fmt.Sprintf("%+v", n.Snapshot())
	levels := ""
	var energy float64
	for _, l := range n.Links() {
		levels += fmt.Sprintf("%d,", l.Level())
		energy += l.EnergyJ(n.Now())
	}
	state = fmt.Sprintf("cycle=%d now=%d inflight=%d injected=%d energy=%.18g levels=%s",
		n.Cycle(), n.Now(), n.InFlight, n.injected, energy, levels)
	return snapshot, state
}

// TestSkipEquivalence proves the activity-driven core (idle-router skipping
// plus quiescent fast-forward) is byte-identical to the always-tick
// baseline across the load range the paper sweeps: near-idle, moderate and
// saturated. Every observable — the Results snapshot, the cycle counter,
// the simulation clock, per-link energy and final DVS levels — must match
// exactly, not approximately.
func TestSkipEquivalence(t *testing.T) {
	cycles := int64(20_000)
	if testing.Short() {
		cycles = 4_000
	}
	for _, rate := range []float64{0.05, 0.3, 4.0} {
		rate := rate
		t.Run(fmt.Sprintf("rate=%.2f", rate), func(t *testing.T) {
			skipSnap, skipState := runForEquivalence(t, rate, false, cycles)
			baseSnap, baseState := runForEquivalence(t, rate, true, cycles)
			if skipSnap != baseSnap {
				t.Errorf("Results diverge:\n skip:   %s\n noskip: %s", skipSnap, baseSnap)
			}
			if skipState != baseState {
				t.Errorf("accounting diverges:\n skip:   %s\n noskip: %s", skipState, baseState)
			}
		})
	}
}

// TestSkipEquivalenceAudited reruns the low-load point under the runtime
// invariant checker: the audit's structural scans must see identical cycle
// numbers whether quiescent stretches are fast-forwarded or stepped.
func TestSkipEquivalenceAudited(t *testing.T) {
	cycles := int64(8_000)
	if testing.Short() {
		cycles = 2_000
	}
	run := func(noskip bool) string {
		cfg := NewConfig()
		cfg.Policy = PolicyHistory
		cfg.Audit.Enabled = true
		n := mustNew(t, cfg)
		if noskip {
			useNoSkip(t, n)
		}
		p := traffic.NewTwoLevelParams(0.05)
		p.Seed = 7
		m, err := traffic.NewTwoLevel(p, n.Topo)
		if err != nil {
			t.Fatal(err)
		}
		n.Launch(m, sim.Time(cycles+1)*cfg.RouterPeriod)
		n.BeginMeasurement()
		n.Run(cycles)
		st := n.Auditor().Stats()
		if st.Violations != 0 {
			t.Fatalf("noskip=%v: %d audit violations", noskip, st.Violations)
		}
		return fmt.Sprintf("scans=%d snapshot=%+v", st.Scans, n.Snapshot())
	}
	if skip, base := run(false), run(true); skip != base {
		t.Errorf("audited runs diverge:\n skip:   %s\n noskip: %s", skip, base)
	}
}

// TestFastForwardIdleNetwork checks that a network with no traffic at all
// jumps over quiescent stretches instead of stepping them, and that the
// jump lands exactly on the requested cycle count.
func TestFastForwardIdleNetwork(t *testing.T) {
	cfg := NewConfig()
	cfg.Policy = PolicyHistory
	n := mustNew(t, cfg)
	n.Run(100_000)
	if got := n.Cycle(); got != 100_000 {
		t.Fatalf("Cycle() = %d after Run(100000)", got)
	}
	s := n.SkipStats()
	if s.FastForwards == 0 || s.CyclesFastForwarded == 0 {
		t.Errorf("idle network never fast-forwarded: %+v", s)
	}
	if s.CyclesExecuted+s.CyclesFastForwarded != 100_000 {
		t.Errorf("executed %d + fast-forwarded %d != 100000",
			s.CyclesExecuted, s.CyclesFastForwarded)
	}
	// Policy windows close every H cycles and each closing cycle must
	// execute; an idle PolicyHistory network can therefore skip at most
	// H-1 cycles per jump.
	if s.CyclesExecuted < 100_000/int64(cfg.DVS.H) {
		t.Errorf("only %d cycles executed; policy windows were jumped over", s.CyclesExecuted)
	}
}

// TestNoSkipDisablesFastForward checks the reference core the equivalence
// tests compare against: under useNoSkip the network steps every cycle and
// ticks every router.
func TestNoSkipDisablesFastForward(t *testing.T) {
	n := useNoSkip(t, mustNew(t, NewConfig()))
	n.Run(5_000)
	s := n.SkipStats()
	if s.FastForwards != 0 || s.CyclesFastForwarded != 0 {
		t.Errorf("NoSkip fast-forwarded: %+v", s)
	}
	if s.CyclesExecuted != 5_000 {
		t.Errorf("executed %d cycles, want 5000", s.CyclesExecuted)
	}
	if s.RouterTicksElided != 0 {
		t.Errorf("NoSkip elided %d router ticks", s.RouterTicksElided)
	}
	if want := 5_000 * int64(len(n.Routers)); s.RouterTicks != want {
		t.Errorf("RouterTicks = %d, want %d", s.RouterTicks, want)
	}
}

// TestSkipStatsAccounting checks the skip counters' internal consistency on
// a loaded run: executed + fast-forwarded cycles equals the cycle counter,
// and ticks + elided equals nodes * baseline cycles.
func TestSkipStatsAccounting(t *testing.T) {
	cfg := NewConfig()
	cfg.Policy = PolicyHistory
	n := mustNew(t, cfg)
	p := traffic.NewTwoLevelParams(0.1)
	p.Seed = 3
	m, err := traffic.NewTwoLevel(p, n.Topo)
	if err != nil {
		t.Fatal(err)
	}
	n.Launch(m, sim.Time(10_000)*cfg.RouterPeriod)
	n.Run(10_000)
	s := n.SkipStats()
	if s.CyclesExecuted+s.CyclesFastForwarded != n.Cycle() {
		t.Errorf("executed %d + fast-forwarded %d != cycle %d",
			s.CyclesExecuted, s.CyclesFastForwarded, n.Cycle())
	}
	if total := s.RouterTicks + s.RouterTicksElided; total != n.Cycle()*int64(len(n.Routers)) {
		t.Errorf("ticks %d + elided %d != cycles %d * nodes %d",
			s.RouterTicks, s.RouterTicksElided, n.Cycle(), len(n.Routers))
	}
	var histSum int64
	for _, c := range s.ActiveHist {
		histSum += c
	}
	if histSum != s.CyclesExecuted {
		t.Errorf("ActiveHist sums to %d, want %d executed cycles", histSum, s.CyclesExecuted)
	}
}
