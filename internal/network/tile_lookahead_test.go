package network

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/traffic"
)

// runVerifiedEquivalence is runTiledForEquivalence with the PR 10 knobs:
// lookahead verification, forced worker goroutines (so the race detector
// sees the concurrent path even on a single-CPU host), and optional
// barrier-elision disable. It returns the same observables plus the
// network, so callers can inspect counters.
func runVerifiedEquivalence(t *testing.T, tr *traffic.Trace, tiles int, noElide bool, cycles int64) (snapshot, state string, n *Network) {
	t.Helper()
	cfg := NewConfig()
	cfg.Policy = PolicyHistory
	cfg.Tiles = tiles
	n = mustNew(t, cfg)
	n.verifyLookahead = true
	n.forceTileWorkers = true
	n.noTileElide = noElide
	n.Launch(tr, tr.Horizon())
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
	return snapshot, state, n
}

// TestLookaheadBoundSafety runs the load range the paper sweeps at every
// tile count with lookahead verification on: every cross-tile message is
// checked at merge time against the bound its source tile promised when
// the window was planned. Zero violations and byte-identical results
// against the sequential reference prove the extracted lookahead never
// promises a window it cannot keep.
func TestLookaheadBoundSafety(t *testing.T) {
	cycles := int64(10_000)
	if testing.Short() {
		cycles = 2_500
	}
	cfg := NewConfig()
	horizon := sim.Time(2*cycles+1) * cfg.RouterPeriod
	for _, rate := range []float64{0.05, 0.3, 4.0} {
		rate := rate
		t.Run(fmt.Sprintf("rate=%.2f", rate), func(t *testing.T) {
			tr := captureWorkload(t, rate, horizon)
			refSnap, refState := runTiledForEquivalence(t, tr, 1, false, cycles)
			for _, tiles := range []int{2, 4} {
				snap, state, n := runVerifiedEquivalence(t, tr, tiles, false, cycles)
				if v := n.LookaheadViolations(); v != 0 {
					t.Errorf("tiles=%d: %d lookahead bound violations", tiles, v)
				}
				if snap != refSnap {
					t.Errorf("tiles=%d Results diverge:\n tiled: %s\n ref:   %s", tiles, snap, refSnap)
				}
				if state != refState {
					t.Errorf("tiles=%d accounting diverges:\n tiled: %s\n ref:   %s", tiles, state, refState)
				}
			}
		})
	}
}

// TestBarrierElisionEquivalence proves barrier cadence is invisible in the
// output: a run with merge elision produces byte-identical results to one
// merging at every window end (noTileElide), and the elision-enabled run
// at low load must actually elide — with strictly fewer merges than
// simulated cycles, the assertion the CI warm-cache job repeats.
func TestBarrierElisionEquivalence(t *testing.T) {
	cycles := int64(10_000)
	if testing.Short() {
		cycles = 2_500
	}
	cfg := NewConfig()
	horizon := sim.Time(2*cycles+1) * cfg.RouterPeriod
	for _, rate := range []float64{0.05, 4.0} {
		rate := rate
		t.Run(fmt.Sprintf("rate=%.2f", rate), func(t *testing.T) {
			tr := captureWorkload(t, rate, horizon)
			for _, tiles := range []int{2, 4} {
				elSnap, elState, eln := runVerifiedEquivalence(t, tr, tiles, false, cycles)
				noSnap, noState, non := runVerifiedEquivalence(t, tr, tiles, true, cycles)
				if elSnap != noSnap {
					t.Errorf("tiles=%d elision changes Results:\n elide: %s\n merge: %s", tiles, elSnap, noSnap)
				}
				if elState != noState {
					t.Errorf("tiles=%d elision changes accounting:\n elide: %s\n merge: %s", tiles, elState, noState)
				}
				es, ns := eln.SkipStats(), non.SkipStats()
				if ns.TileBarriersElided != 0 {
					t.Errorf("tiles=%d: noTileElide run elided %d merges", tiles, ns.TileBarriersElided)
				}
				if es.TileWindows == 0 {
					t.Errorf("tiles=%d: no windows recorded", tiles)
				}
				if rate == 0.05 {
					if es.TileBarriersElided == 0 {
						t.Errorf("tiles=%d: low-load run elided no merges (windows=%d barriers=%d)",
							tiles, es.TileWindows, es.TileBarriers)
					}
					if total := es.CyclesExecuted + es.CyclesFastForwarded; es.TileBarriers >= total {
						t.Errorf("tiles=%d: %d barriers for %d simulated cycles at low load",
							tiles, es.TileBarriers, total)
					}
				}
			}
		})
	}
}

// TestLookaheadNeverBelowConstant proves the extracted per-window bound
// dominates the constant lookahead the engine used before extraction: at
// every checkpointed instant of a live mid-load run, each tile's bound is
// at least the old W = ceil(topLinkPeriod/routerPeriod) ahead of its
// cycle. The clamp sits structurally in bound (the floor), so this pins
// the invariant the §14 proof sketch leans on.
func TestLookaheadNeverBelowConstant(t *testing.T) {
	cfg := NewConfig()
	cfg.Policy = PolicyHistory
	cfg.Tiles = 4
	cycles := int64(4_000)
	horizon := sim.Time(cycles+1) * cfg.RouterPeriod
	tr := captureWorkload(t, 0.3, horizon)
	n := mustNew(t, cfg)
	n.Launch(tr, tr.Horizon())
	for done := int64(0); done < cycles; done += 100 {
		n.Run(100)
		for i, tl := range n.tiles {
			if b := tl.bound(tl.cycle); b < tl.cycle+n.lookahead {
				t.Fatalf("cycle %d tile %d: bound %d below constant floor %d",
					n.Cycle(), i, b, tl.cycle+n.lookahead)
			}
		}
	}
}
