package network

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/traffic"
)

// runForRefEquivalence mirrors runForEquivalence (skip_test.go) but toggles
// the allocator path: work-list (the default) versus the retained
// full-scan reference.
func runForRefEquivalence(t *testing.T, rate float64, ref, audit bool, cycles int64) (snapshot string, state string) {
	t.Helper()
	cfg := NewConfig()
	cfg.Policy = PolicyHistory
	cfg.Audit.Enabled = audit
	n := mustNew(t, cfg)
	if ref {
		useRefAllocators(n)
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
	if audit {
		if st := n.Auditor().Stats(); st.Violations != 0 {
			t.Fatalf("ref=%v: %d audit violations", ref, st.Violations)
		}
	}

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

// TestRefAllocatorEquivalence proves the incremental work-list allocators
// are byte-identical to the retained full-scan reference across the load
// range the paper sweeps: near-idle, moderate and saturated. Every
// observable — the Results snapshot, the cycle counter, the simulation
// clock, per-link energy and final DVS levels — must match exactly.
func TestRefAllocatorEquivalence(t *testing.T) {
	cycles := int64(20_000)
	if testing.Short() {
		cycles = 4_000
	}
	for _, rate := range []float64{0.05, 0.3, 4.0} {
		rate := rate
		t.Run(fmt.Sprintf("rate=%.2f", rate), func(t *testing.T) {
			wlSnap, wlState := runForRefEquivalence(t, rate, false, false, cycles)
			refSnap, refState := runForRefEquivalence(t, rate, true, false, cycles)
			if wlSnap != refSnap {
				t.Errorf("Results diverge:\n worklist: %s\n ref:      %s", wlSnap, refSnap)
			}
			if wlState != refState {
				t.Errorf("accounting diverges:\n worklist: %s\n ref:      %s", wlState, refState)
			}
		})
	}
}

// TestRefAllocatorEquivalenceAudited reruns the saturated point under the
// runtime invariant checker on both allocator paths: structural scans must
// pass and see identical state whether arbitration requests come from the
// work-lists or from full scans.
func TestRefAllocatorEquivalenceAudited(t *testing.T) {
	cycles := int64(6_000)
	if testing.Short() {
		cycles = 1_500
	}
	wlSnap, wlState := runForRefEquivalence(t, 4.0, false, true, cycles)
	refSnap, refState := runForRefEquivalence(t, 4.0, true, true, cycles)
	if wlSnap != refSnap || wlState != refState {
		t.Errorf("audited runs diverge:\n worklist: %s %s\n ref:      %s %s",
			wlSnap, wlState, refSnap, refState)
	}
}
