package noc

import (
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/runcache"
)

// TestNewWarmedTwoLevelSharesWarmup pins netsim's warmup-reuse surface:
// a simulated warmup, a captured-and-persisted warmup and a forked warmup
// must all measure identically, and invocations differing only in policy
// must fork the snapshot a different policy paid for.
func TestNewWarmedTwoLevelSharesWarmup(t *testing.T) {
	s, err := runcache.Open(t.TempDir(), runcache.Options{Fingerprint: "noc-warmed-test"})
	if err != nil {
		t.Fatal(err)
	}
	exp.SetDiskCache(s)
	defer exp.SetDiskCache(nil)

	cfg := DefaultConfig()
	cfg.MeshSize = 4
	w := TwoLevelWorkload{Rate: 0.3, Tasks: 100, TaskDuration: time.Millisecond}
	const warm, meas = 2000, 2000

	measureWarmed := func(c Config, reuse bool) Results {
		t.Helper()
		n, err := NewWarmedTwoLevel(c, w, warm, meas, reuse)
		if err != nil {
			t.Fatalf("NewWarmedTwoLevel: %v", err)
		}
		return n.Measure(meas)
	}

	straight := measureWarmed(cfg, false) // always simulates
	cold := measureWarmed(cfg, true)      // simulates, captures, persists
	afterCold := s.Stats()
	if afterCold.Puts == 0 {
		t.Fatal("cold reuse run persisted no snapshot")
	}
	forked := measureWarmed(cfg, true) // forks the persisted snapshot
	if hits := s.Stats().Hits - afterCold.Hits; hits == 0 {
		t.Fatal("second reuse run did not hit the persisted snapshot")
	}
	if straight != cold || cold != forked {
		t.Errorf("warmup modes diverged:\nstraight: %+v\ncold:     %+v\nforked:   %+v",
			straight, cold, forked)
	}

	// A different policy must share the same warmup snapshot and still
	// match its own straight run.
	alt := cfg
	alt.Policy = PolicyNone
	beforeAlt := s.Stats()
	altForked := measureWarmed(alt, true)
	if hits := s.Stats().Hits - beforeAlt.Hits; hits == 0 {
		t.Error("policy variant did not fork the shared snapshot")
	}
	if altStraight := measureWarmed(alt, false); altForked != altStraight {
		t.Errorf("policy variant fork diverged from its straight run:\nforked:   %+v\nstraight: %+v",
			altForked, altStraight)
	}
}

// TestWarmupSharedAcrossClients: the experiment harness and the one-shot
// facade run the same stage under the same key, so with one store
// installed either forks the warm-up the other paid for — a figures sweep
// followed by netsim at the same platform, workload and budgets simulates
// no warm-up, and the other way round — and each still measures exactly
// what its own straight run measures.
func TestWarmupSharedAcrossClients(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-budget simulations skipped in -short")
	}
	const rate, warm, meas = 0.3, 40_000, 40_000 // exp's -quick budget
	o := exp.Options{Quick: true}
	w := TwoLevelWorkload{Rate: rate, Tasks: 100, TaskDuration: time.Millisecond}
	oneShot := func(policy string, reuse bool) Results {
		t.Helper()
		cfg := DefaultConfig()
		cfg.Policy = policy
		n, err := NewWarmedTwoLevel(cfg, w, warm, meas, reuse)
		if err != nil {
			t.Fatalf("NewWarmedTwoLevel: %v", err)
		}
		return n.Measure(meas)
	}
	install := func() *runcache.Store {
		t.Helper()
		s, err := runcache.Open(t.TempDir(), runcache.Options{Fingerprint: "noc-shared-test"})
		if err != nil {
			t.Fatal(err)
		}
		exp.SetDiskCache(s)
		exp.ResetCaches() // a new process: no memoized results or snapshots
		return s
	}
	defer func() {
		exp.SetDiskCache(nil)
		exp.ResetCaches()
	}()

	exp.ResetCaches()
	sweepStraight := func() network.Results {
		cfg := DefaultConfig()
		cfg.Policy = PolicyHistory
		lowered, err := cfg.lower()
		if err != nil {
			t.Fatal(err)
		}
		p, err := w.params(lowered.Seed)
		if err != nil {
			t.Fatal(err)
		}
		n, err := exp.Warmed(lowered, p, warm, meas, false)
		if err != nil {
			t.Fatal(err)
		}
		n.BeginMeasurement()
		n.Run(meas)
		return n.Snapshot()
	}()
	oneShotStraight := oneShot(PolicyNone, false)

	// Sweep first, one-shot second.
	s := install()
	if got := exp.Point(rate, network.PolicyHistory, o); got != sweepStraight {
		t.Errorf("checkpointed sweep point diverged from its straight run:\n%+v\n%+v", got, sweepStraight)
	}
	hits, cycles := s.Stats().Hits, exp.WarmupCyclesExecuted()
	if got := oneShot(PolicyNone, true); got != oneShotStraight {
		t.Errorf("one-shot fork of the sweep's warm-up diverged from its straight run:\n%+v\n%+v", got, oneShotStraight)
	}
	if s.Stats().Hits == hits || exp.WarmupCyclesExecuted() != cycles {
		t.Errorf("one-shot run after the sweep: store hits %d -> %d, warm-up cycles +%d; want a hit and no warm-up",
			hits, s.Stats().Hits, exp.WarmupCyclesExecuted()-cycles)
	}

	// One-shot first, sweep second.
	s = install()
	if got := oneShot(PolicyNone, true); got != oneShotStraight {
		t.Errorf("capturing one-shot run diverged from its straight run:\n%+v\n%+v", got, oneShotStraight)
	}
	hits, cycles = s.Stats().Hits, exp.WarmupCyclesExecuted()
	if got := exp.Point(rate, network.PolicyHistory, o); got != sweepStraight {
		t.Errorf("sweep fork of the one-shot's warm-up diverged from its straight run:\n%+v\n%+v", got, sweepStraight)
	}
	if s.Stats().Hits == hits || exp.WarmupCyclesExecuted() != cycles {
		t.Errorf("sweep point after the one-shot run: store hits %d -> %d, warm-up cycles +%d; want a hit and no warm-up",
			hits, s.Stats().Hits, exp.WarmupCyclesExecuted()-cycles)
	}
}
