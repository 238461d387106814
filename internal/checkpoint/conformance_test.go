package checkpoint_test

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/flow"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The conformance suite: a run forked from a warmup checkpoint must be
// byte-identical to a run that never stopped. Each scenario runs both
// ways — straight (hold, warm up, release, measure) and forked (capture
// the held warmed-up state, serialize it through the codec, restore into
// a fresh network, release, measure) — and requires the measurement
// Results to marshal to identical JSON and the complete final simulation
// states to diff clean, field by field.

const (
	confWarm = 1500
	confMeas = 1500
)

// confScenario is one operating point of the conformance matrix.
type confScenario struct {
	rate   float64
	audit  bool
	policy network.PolicyKind
}

func (s confScenario) String() string {
	return fmt.Sprintf("rate=%g/audit=%t/%v", s.rate, s.audit, s.policy)
}

// confMatrix spans light load, moderate load, and deep saturation, each
// with and without the runtime invariant checker.
func confMatrix() []confScenario {
	var out []confScenario
	for _, rate := range []float64{0.05, 0.3, 4.0} {
		for _, audit := range []bool{false, true} {
			out = append(out, confScenario{rate: rate, audit: audit, policy: network.PolicyHistory})
		}
	}
	return out
}

func (s confScenario) config() network.Config {
	cfg := network.NewConfig()
	cfg.Policy = s.policy
	cfg.Audit.Enabled = s.audit
	return cfg
}

// confTrace captures the scenario's workload once; straight run, warmup
// run and fork all replay the same arrivals, exactly as the experiment
// harness shares one memoized trace per operating point.
func confTrace(t testing.TB, rate float64, cfg network.Config) (*traffic.Trace, sim.Time) {
	t.Helper()
	horizon := sim.Time(confWarm+confMeas+1) * cfg.RouterPeriod
	p := traffic.NewTwoLevelParams(rate)
	m, err := traffic.NewTwoLevel(p, topology.New(cfg.K, cfg.N, cfg.Torus))
	if err != nil {
		t.Fatalf("NewTwoLevel: %v", err)
	}
	return traffic.Capture(m, horizon), horizon
}

// runStraight executes warmup + measurement uninterrupted.
func runStraight(t testing.TB, cfg network.Config, tr *traffic.Trace, horizon sim.Time) *network.Network {
	t.Helper()
	n, err := network.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n.Launch(tr, horizon)
	n.SetDVSHold(true)
	n.Run(confWarm)
	n.SetDVSHold(false)
	n.BeginMeasurement()
	n.Run(confMeas)
	return n
}

// warmSnapshot runs the held warmup and captures it, round-tripping the
// snapshot through the binary codec so every conformance scenario also
// proves Encode/Decode exact.
func warmSnapshot(t testing.TB, cfg network.Config, tr *traffic.Trace, horizon sim.Time) *checkpoint.Snapshot {
	t.Helper()
	n, err := network.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n.Launch(tr, horizon)
	n.SetDVSHold(true)
	n.Run(confWarm)
	snap, err := checkpoint.Capture(n)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	b, err := checkpoint.Encode(snap)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	snap2, err := checkpoint.Decode(b)
	if err != nil {
		t.Fatalf("Decode of a fresh capture: %v", err)
	}
	if d := checkpoint.DiffStates(&snap.State, &snap2.State); d != "" {
		t.Fatalf("codec round trip diverged: %s", d)
	}
	return snap2
}

// runForked restores the snapshot and executes the measurement.
func runForked(t testing.TB, snap *checkpoint.Snapshot, cfg network.Config, tr *traffic.Trace) *network.Network {
	t.Helper()
	n, err := checkpoint.Fork(snap, cfg, tr)
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	n.SetDVSHold(false)
	n.BeginMeasurement()
	n.Run(confMeas)
	return n
}

func resultsJSON(t testing.TB, n *network.Network) string {
	t.Helper()
	b, err := json.Marshal(n.Snapshot())
	if err != nil {
		t.Fatalf("marshal results: %v", err)
	}
	return string(b)
}

// TestForkEquivalence is the headline guarantee: at every point of the
// conformance matrix, fork-and-measure is byte-identical to an
// uninterrupted run — same Results JSON, same complete final state.
func TestForkEquivalence(t *testing.T) {
	for _, sc := range confMatrix() {
		sc := sc
		t.Run(sc.String(), func(t *testing.T) {
			t.Parallel()
			cfg := sc.config()
			tr, horizon := confTrace(t, sc.rate, cfg)
			straight := runStraight(t, cfg, tr, horizon)
			snap := warmSnapshot(t, cfg, tr, horizon)
			forked := runForked(t, snap, cfg, tr)

			sj, fj := resultsJSON(t, straight), resultsJSON(t, forked)
			if sj != fj {
				t.Errorf("results diverged:\nstraight: %s\nforked:   %s", sj, fj)
			}
			d, err := checkpoint.Diff(straight, forked)
			if err != nil {
				t.Fatalf("Diff: %v", err)
			}
			if d != "" {
				t.Errorf("final state diverged: %s", d)
			}
		})
	}
}

// wheelSpan copies the span, in router cycles, of the network's wake wheel:
// a sleeper due that many cycles out or more is parked again from the slot
// one span ahead. TestWheelSpanMatchesCheckpoint in internal/network fails
// if the network's wheelSpan stops equalling it.
const wheelSpan = 64

// sleeperReach classifies the routers a step boundary leaves asleep — busy,
// nothing buffered, not due on the next cycle — by where a restore parks
// them: near when their wake cycle is within wheelSpan cycles of the next
// one, far otherwise. It reads only public state: the wake instant is the
// earliest a queued tx front clears its output pipeline and its link.
func sleeperReach(n *network.Network) (near, far int) {
	p, now := n.Cfg.RouterPeriod, n.Now()
	for _, r := range n.Routers {
		if !r.Busy() || r.BufferedFlits() != 0 {
			continue
		}
		wake := sim.Time(math.MaxInt64)
		for mask := r.TxPortMask(); mask != 0; mask &= mask - 1 {
			out := r.Outputs[bits.TrailingZeros32(mask)]
			at := out.TxFront().ReadyAt()
			if out.Link != nil {
				at = max(at, out.Link.EarliestSend())
			}
			wake = min(wake, at)
		}
		switch due := int64((wake + p - 1) / p); {
		case wake <= now+p:
		case due-n.Cycle() < wheelSpan:
			near++
		default:
			far++
		}
	}
	return near, far
}

// TestForkEquivalenceWithSleepers forks at points that provably have
// sleeping routers, so the suite cannot pass with the wake state
// unexercised: restore re-derives which routers sleep and until when, and
// a fork that woke them all (or woke one late) would visit different
// routers than the uninterrupted run — visible in Skips.RouterTicks, or in
// the results. Bottom-level links make waiting the common state; the
// bottom-level capture lands on the first warm cycle with a sleeper,
// wherever that is. Under a 100 ps router clock a bottom-level link takes
// 80 cycles per flit while the output pipeline takes 10, so the
// near-and-far capture waits for a cycle where some sleeper wakes inside
// the wake wheel's span and another past it.
func TestForkEquivalenceWithSleepers(t *testing.T) {
	for _, tc := range []struct {
		name   string
		period sim.Duration
		ready  func(n *network.Network) bool
	}{
		{"bottom-level", sim.Nanosecond, func(n *network.Network) bool { return n.Sleeping() > 0 }},
		{"near-and-far", 100, func(n *network.Network) bool {
			near, far := sleeperReach(n)
			return near > 0 && far > 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := confScenario{policy: network.PolicyHistory}.config()
			cfg.StartLevel = 0
			cfg.RouterPeriod = tc.period
			forkWithSleepers(t, cfg, tc.ready)
		})
	}
}

// forkWithSleepers captures a held warm-up on the first cycle past its
// midpoint where ready holds, forks it, and requires the fork to match the
// run that kept going.
func forkWithSleepers(t *testing.T, cfg network.Config, ready func(*network.Network) bool) {
	tr, horizon := confTrace(t, 0.3, cfg)
	warm, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm.Launch(tr, horizon)
	warm.SetDVSHold(true)
	warm.Run(confWarm / 2)
	for !ready(warm) && warm.Cycle() < confWarm {
		warm.Run(1)
	}
	if !ready(warm) {
		t.Fatalf("no capture point in cycles %d..%d", confWarm/2, confWarm)
	}
	asleep := warm.Sleeping()
	snap, err := checkpoint.Capture(warm)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	forked, err := checkpoint.Fork(snap, cfg, tr)
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	// The fork may park fewer: a router due on the very next cycle is not
	// worth parking, and restore applies that rule to sleepers the captured
	// run parked when they still had longer to go. Both visit it next cycle.
	if got := forked.Sleeping(); got == 0 || got > asleep {
		t.Fatalf("fork restored %d sleeping routers, the capture had %d", got, asleep)
	}

	// The straight run keeps going from the capture point itself.
	for _, n := range []*network.Network{warm, forked} {
		n.SetDVSHold(false)
		n.BeginMeasurement()
		n.Run(confMeas)
	}
	if sj, fj := resultsJSON(t, warm), resultsJSON(t, forked); sj != fj {
		t.Errorf("results diverged:\nstraight: %s\nforked:   %s", sj, fj)
	}
	d, err := checkpoint.Diff(warm, forked)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if d != "" {
		t.Errorf("final state diverged: %s", d)
	}
	if s := forked.SkipStats(); s.RouterTicksSlept == 0 {
		t.Error("the forked run never skipped a sleeping router")
	}
}

// TestForkSharedAcrossPolicies pins what makes the warm snapshot shareable:
// a warmup captured under one policy forks into every other variant (the
// held warmup never consults the policy), and each fork still matches its
// own uninterrupted run.
func TestForkSharedAcrossPolicies(t *testing.T) {
	base := confScenario{rate: 0.3, policy: network.PolicyNone}
	baseCfg := base.config()
	tr, horizon := confTrace(t, base.rate, baseCfg)
	snap := warmSnapshot(t, baseCfg, tr, horizon)

	for _, policy := range []network.PolicyKind{
		network.PolicyNone, network.PolicyHistory,
		network.PolicyLinkUtilOnly, network.PolicyAdaptiveThresholds,
	} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			cfg := baseCfg
			cfg.Policy = policy
			if err := checkpoint.CompatibleConfig(baseCfg, cfg); err != nil {
				t.Fatalf("CompatibleConfig: %v", err)
			}
			straight := runStraight(t, cfg, tr, horizon)
			forked := runForked(t, snap, cfg, tr)
			if sj, fj := resultsJSON(t, straight), resultsJSON(t, forked); sj != fj {
				t.Errorf("results diverged:\nstraight: %s\nforked:   %s", sj, fj)
			}
			d, err := checkpoint.Diff(straight, forked)
			if err != nil {
				t.Fatalf("Diff: %v", err)
			}
			if d != "" {
				t.Errorf("final state diverged: %s", d)
			}
		})
	}
}

// TestCompatibleConfigRejectsStructuralDrift: only the policy family and
// transition latencies may differ between capture and fork.
func TestCompatibleConfigRejectsStructuralDrift(t *testing.T) {
	base := network.NewConfig()

	ok := base
	ok.Policy = network.PolicyLinkUtilOnly
	ok.DVS.TLLow = 0.11
	ok.DVS.H = 700
	ok.Link.VoltTransition = 42 * sim.Microsecond
	ok.Link.FreqTransitionCycles = 7
	if err := checkpoint.CompatibleConfig(base, ok); err != nil {
		t.Errorf("policy/threshold/transition drift should be compatible: %v", err)
	}

	for name, mutate := range map[string]func(*network.Config){
		"topology": func(c *network.Config) { c.K = 4 },
		"vcs":      func(c *network.Config) { c.Router.VCs = 4 },
		"levels":   func(c *network.Config) { c.Link.Levels = 4 },
		"audit":    func(c *network.Config) { c.Audit.Enabled = true },
		"seed":     func(c *network.Config) { c.Seed = 99 },
		"routing":  func(c *network.Config) { c.Routing = "adaptive" },
		"startlvl": func(c *network.Config) { c.StartLevel = 0 },
	} {
		bad := base
		mutate(&bad)
		if err := checkpoint.CompatibleConfig(base, bad); err == nil {
			t.Errorf("%s drift should be incompatible", name)
		}
	}
}

// TestCaptureRefusals pins the refusal surface: state a fork could not
// reproduce must refuse to capture rather than capture wrongly.
func TestCaptureRefusals(t *testing.T) {
	cfg := network.NewConfig()
	tr, horizon := confTrace(t, 0.3, cfg)

	t.Run("policy-window-closed", func(t *testing.T) {
		n, err := network.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Launch(tr, horizon)
		n.Run(confWarm) // unheld: history windows close
		if _, err := checkpoint.Capture(n); err == nil {
			t.Error("capture after a policy window closed should refuse")
		}
	})

	t.Run("live-model", func(t *testing.T) {
		n, err := network.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := traffic.NewTwoLevel(traffic.NewTwoLevelParams(0.3), n.Topo)
		if err != nil {
			t.Fatal(err)
		}
		n.Launch(m, horizon)
		n.SetDVSHold(true)
		n.Run(confWarm)
		if _, err := checkpoint.Capture(n); err == nil {
			t.Error("capture with a live traffic model should refuse")
		}
	})

	t.Run("observer", func(t *testing.T) {
		n, err := network.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Launch(tr, horizon)
		n.SetDVSHold(true)
		n.OnDeliver = func(*flow.Packet) {}
		if _, err := checkpoint.Capture(n); err == nil {
			t.Error("capture with an OnDeliver observer should refuse")
		}
	})
}

// TestForkRecapture: capturing a freshly forked network reproduces the
// snapshot exactly — restore loses nothing the codec keeps.
func TestForkRecapture(t *testing.T) {
	cfg := network.NewConfig()
	tr, horizon := confTrace(t, 0.3, cfg)
	snap := warmSnapshot(t, cfg, tr, horizon)
	n, err := checkpoint.Fork(snap, cfg, tr)
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	again, err := checkpoint.Capture(n)
	if err != nil {
		t.Fatalf("re-capture of a fork: %v", err)
	}
	if d := checkpoint.DiffStates(&snap.State, &again.State); d != "" {
		t.Errorf("fork re-capture diverged from snapshot: %s", d)
	}
	b1, err1 := checkpoint.Encode(snap)
	b2, err2 := checkpoint.Encode(again)
	if err1 != nil || err2 != nil {
		t.Fatalf("encode: %v / %v", err1, err2)
	}
	if string(b1) != string(b2) {
		t.Error("fork re-capture encodes to different bytes")
	}
}

// TestDiffReportsDivergence: the walker localizes an injected difference
// instead of just failing.
func TestDiffReportsDivergence(t *testing.T) {
	cfg := network.NewConfig()
	tr, horizon := confTrace(t, 0.3, cfg)
	a := warmSnapshot(t, cfg, tr, horizon)
	b := warmSnapshot(t, cfg, tr, horizon)
	if d := checkpoint.DiffStates(&a.State, &b.State); d != "" {
		t.Fatalf("identical warmups diff: %s", d)
	}
	b.State.Routers[12].FlitsSwitched++
	d := checkpoint.DiffStates(&a.State, &b.State)
	if d == "" {
		t.Fatal("walker missed an injected divergence")
	}
	if want := "Routers[12].FlitsSwitched"; !strings.Contains(d, want) {
		t.Errorf("diff %q does not name %q", d, want)
	}
}
