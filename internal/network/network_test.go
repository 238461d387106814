package network

import (
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// smallConfig is a 4x4 mesh with paper-style routers, sized for fast tests.
func smallConfig(policy PolicyKind) Config {
	cfg := NewConfig()
	cfg.K = 4
	cfg.Policy = policy
	return cfg
}

func mustNew(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConfigValidation(t *testing.T) {
	if err := NewConfig().Validate(); err != nil {
		t.Errorf("paper config invalid: %v", err)
	}
	// Every case must come back as an error naming the problem; the last
	// three used to validate and then panic inside the first RouteMask.
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   string // substring of the error
	}{
		{"port/topology mismatch", func(c *Config) { c.Router.Ports = 7 }, "ports"},
		{"unknown routing", func(c *Config) { c.Routing = "bogus" }, "bogus"},
		{"adaptive on a torus", func(c *Config) { c.Routing, c.Torus = "adaptive", true }, "adaptive routing on a torus"},
		{"adaptive with one VC", func(c *Config) { c.Routing, c.Router.VCs = "adaptive", 1 }, "adaptive routing with 1 VC"},
		{"torus with one VC", func(c *Config) { c.Torus, c.Router.VCs = true, 1 }, "torus with 1 VC"},
	} {
		cfg := NewConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want an error containing %q", tc.name, err, tc.want)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted the config", tc.name)
		}
	}
	// The neighbouring legal platforms still validate.
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Torus = true },
		func(c *Config) { c.Routing = "adaptive" },
		func(c *Config) { c.Router.VCs = 1 },
	} {
		cfg := NewConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("legal config rejected: %v", err)
		}
	}
}

func TestSinglePacketDelivery(t *testing.T) {
	n := mustNew(t, smallConfig(PolicyNone))
	n.BeginMeasurement()
	// (0,0) -> (3,0): 3 hops.
	n.Inject(0, 3, 0, -1)
	n.Run(200)
	r := n.Snapshot()
	if r.DeliveredPkts != 1 {
		t.Fatalf("delivered %d packets, want 1", r.DeliveredPkts)
	}
	if n.InFlight != 0 {
		t.Errorf("InFlight = %d after drain", n.InFlight)
	}
	// Zero-load latency: ~13 cycles per hop (router pipeline + link) for 4
	// traversals (3 inter-router + ejection pipeline) plus 4 cycles of tail
	// serialization and injection overhead.
	if r.MeanLatency < 40 || r.MeanLatency > 80 {
		t.Errorf("zero-load latency = %.1f cycles, want ~56", r.MeanLatency)
	}
}

func TestLatencyScalesWithDistance(t *testing.T) {
	lat := func(dst int) float64 {
		n := mustNew(t, smallConfig(PolicyNone))
		n.BeginMeasurement()
		n.Inject(0, dst, 0, -1)
		n.Run(300)
		r := n.Snapshot()
		if r.DeliveredPkts != 1 {
			t.Fatalf("packet to %d not delivered", dst)
		}
		return r.MeanLatency
	}
	near := lat(1)                                 // 1 hop
	far := lat(15)                                 // (3,3): 6 hops
	if far <= near+4*13-10 || far > near+5*13+10 { // 5 extra traversals
		t.Errorf("latency near=%.0f far=%.0f: distance scaling off", near, far)
	}
}

func TestAllPacketsDeliveredUniform(t *testing.T) {
	n := mustNew(t, smallConfig(PolicyNone))
	u := &traffic.Uniform{
		Topo: n.Topo, RatePerNode: 0.02,
		CyclePeriod: n.Cfg.RouterPeriod, Seed: 5,
	}
	n.Launch(u, 20*sim.Microsecond)
	n.BeginMeasurement()
	n.Run(20000)
	// Drain.
	n.Run(3000)
	if n.InFlight != 0 {
		t.Fatalf("%d packets stuck after drain (deadlock or loss)", n.InFlight)
	}
	r := n.Snapshot()
	if r.DeliveredPkts < 5000 {
		t.Errorf("delivered only %d packets", r.DeliveredPkts)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Results {
		n := mustNew(t, smallConfig(PolicyHistory))
		u := &traffic.Uniform{
			Topo: n.Topo, RatePerNode: 0.05,
			CyclePeriod: n.Cfg.RouterPeriod, Seed: 9,
		}
		n.Launch(u, 10*sim.Microsecond)
		n.BeginMeasurement()
		n.Run(12000)
		return n.Snapshot()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestDVSIdleNetworkDropsToBottom(t *testing.T) {
	if testing.Short() {
		t.Skip("1.2 ms simulated idle time: skipped in -short")
	}
	n := mustNew(t, smallConfig(PolicyHistory))
	// No traffic at all: every link should walk down to level 0. Each
	// downward step takes a freq lock + 10 us voltage ramp, and decisions
	// land every 200 cycles, so give it plenty of simulated time.
	n.Run(1_200_000) // 1.2 ms
	for i, l := range n.Links() {
		if l.Level() != 0 {
			t.Fatalf("idle link %d still at level %d", i, l.Level())
		}
	}
	// Power savings approach the table's 8.5X dynamic range.
	n.BeginMeasurement()
	n.Run(50_000)
	r := n.Snapshot()
	if r.SavingsX < 8 {
		t.Errorf("idle savings = %.2fX, want ~8.5X", r.SavingsX)
	}
}

func TestDVSHeavyLoadKeepsLinksFast(t *testing.T) {
	if testing.Short() {
		t.Skip("400k-cycle saturation run: skipped in -short")
	}
	n := mustNew(t, smallConfig(PolicyHistory))
	// Saturating uniform traffic: hot links must stay at high levels.
	u := &traffic.Uniform{
		Topo: n.Topo, RatePerNode: 0.12,
		CyclePeriod: n.Cfg.RouterPeriod, Seed: 11,
	}
	n.Launch(u, sim.Millisecond)
	n.Run(400_000)
	// Average level across links should be well above the floor.
	sum := 0
	for _, l := range n.Links() {
		sum += l.Level()
	}
	avg := float64(sum) / float64(len(n.Links()))
	if avg < 4 {
		t.Errorf("average level under heavy load = %.1f, want >= 4", avg)
	}
}

func TestDVSTradesLatencyForPower(t *testing.T) {
	if testing.Short() {
		t.Skip("two 250k-cycle measured runs: skipped in -short")
	}
	// The paper's core result in miniature: under the two-level bursty
	// workload at a moderate load, history-based DVS saves several-fold
	// power while throughput stays essentially intact and latency pays a
	// bounded penalty (our conservative link model — links dead during
	// frequency locks, 10 us voltage ramps — costs more latency than the
	// paper's +15% but the qualitative trade-off is the paper's).
	run := func(policy PolicyKind) Results {
		n := mustNew(t, smallConfig(policy))
		p := traffic.NewTwoLevelParams(0.3)
		p.AvgTasks = 25
		p.AvgTaskDuration = 200 * sim.Microsecond
		m, err := traffic.NewTwoLevel(p, n.Topo)
		if err != nil {
			t.Fatal(err)
		}
		n.Launch(m, sim.Millisecond)
		n.Run(100_000) // warm up; let DVS settle
		n.BeginMeasurement()
		n.Run(150_000)
		return n.Snapshot()
	}
	base := run(PolicyNone)
	dvs := run(PolicyHistory)
	if base.SavingsX < 0.99 || base.SavingsX > 1.01 {
		t.Errorf("no-DVS savings = %.3f, want 1.0", base.SavingsX)
	}
	if dvs.SavingsX < 2 {
		t.Errorf("history-DVS savings = %.2fX, want > 2X", dvs.SavingsX)
	}
	if dvs.MeanLatency > 5*base.MeanLatency {
		t.Errorf("DVS latency %.0f vs baseline %.0f: degradation too large",
			dvs.MeanLatency, base.MeanLatency)
	}
	if dvs.ThroughputPkts < 0.95*base.ThroughputPkts {
		t.Errorf("DVS throughput %.3f vs baseline %.3f", dvs.ThroughputPkts, base.ThroughputPkts)
	}
}

func TestTorusDelivery(t *testing.T) {
	cfg := smallConfig(PolicyNone)
	cfg.Torus = true
	n := mustNew(t, cfg)
	n.BeginMeasurement()
	// Wraparound route: (0,0) -> (3,3) is 2 hops on a 4x4 torus.
	n.Inject(0, 15, 0, -1)
	// And a longer route exercising the dateline.
	n.Inject(5, 15, 0, -1)
	n.Run(300)
	if got := n.Snapshot().DeliveredPkts; got != 2 {
		t.Fatalf("delivered %d, want 2", got)
	}
}

func TestTorusUnderLoadNoDeadlock(t *testing.T) {
	cfg := smallConfig(PolicyNone)
	cfg.Torus = true
	n := mustNew(t, cfg)
	u := &traffic.Uniform{
		Topo: n.Topo, RatePerNode: 0.05,
		CyclePeriod: n.Cfg.RouterPeriod, Seed: 17,
	}
	n.Launch(u, 15*sim.Microsecond)
	n.Run(15000)
	n.Run(5000) // drain
	if n.InFlight != 0 {
		t.Fatalf("%d packets stuck on torus (dateline broken?)", n.InFlight)
	}
}

func TestAdaptiveRoutingDelivers(t *testing.T) {
	cfg := smallConfig(PolicyNone)
	cfg.Routing = "adaptive"
	n := mustNew(t, cfg)
	u := &traffic.Uniform{
		Topo: n.Topo, RatePerNode: 0.06,
		CyclePeriod: n.Cfg.RouterPeriod, Seed: 19,
	}
	n.Launch(u, 15*sim.Microsecond)
	n.Run(15000)
	n.Run(5000)
	if n.InFlight != 0 {
		t.Fatalf("%d packets stuck under adaptive routing", n.InFlight)
	}
	if got := n.Snapshot().DeliveredPkts; got == 0 {
		t.Error("nothing delivered")
	}
}

func TestTwoLevelTrafficEndToEnd(t *testing.T) {
	n := mustNew(t, smallConfig(PolicyHistory))
	p := traffic.NewTwoLevelParams(0.3)
	p.AvgTasks = 20
	p.AvgTaskDuration = 30 * sim.Microsecond
	m, err := traffic.NewTwoLevel(p, n.Topo)
	if err != nil {
		t.Fatal(err)
	}
	n.Launch(m, 60*sim.Microsecond)
	n.BeginMeasurement()
	n.Run(60_000)
	r := n.Snapshot()
	if r.DeliveredPkts < 10_000 {
		t.Errorf("delivered %d packets, want >> 10k at 0.3 pkts/cycle", r.DeliveredPkts)
	}
	if r.SavingsX <= 1.0 {
		t.Errorf("savings = %.2f, want > 1 under bursty load", r.SavingsX)
	}
}

func TestLinkAtAccessor(t *testing.T) {
	n := mustNew(t, smallConfig(PolicyNone))
	// Interior node: all four directions exist.
	center := n.Topo.NodeAt(1, 1)
	for d := 0; d < 2; d++ {
		for _, dir := range []topology.Direction{topology.Plus, topology.Minus} {
			if n.LinkAt(center, d, dir) == nil {
				t.Errorf("missing link at center (%d,%v)", d, dir)
			}
		}
	}
	// Corner: -x and -y links must not exist.
	if n.LinkAt(0, 0, topology.Minus) != nil {
		t.Error("corner has a -x link")
	}
	// Link count matches topology channels: 4x4 mesh = 2*2*3*4 = 48.
	if got := len(n.Links()); got != 48 {
		t.Errorf("links = %d, want 48", got)
	}
}

func TestRouterConfigMatchesPaper(t *testing.T) {
	cfg := NewConfig()
	want := router.Config{Ports: 5, VCs: 2, BufPerPort: 128, PipelineDepth: 13}
	if cfg.Router != want {
		t.Errorf("router config = %+v, want %+v", cfg.Router, want)
	}
}

// auditedSmall is smallConfig's network under the audit, its violations
// collected into the returned slice instead of panicking.
func auditedSmall(t *testing.T, policy PolicyKind) (*Network, *[]audit.Violation) {
	t.Helper()
	cfg := smallConfig(policy)
	var got []audit.Violation
	cfg.Audit = audit.Options{Enabled: true, OnViolation: func(v audit.Violation) { got = append(got, v) }}
	return mustNew(t, cfg), &got
}

// TestFlitConservationProperty: for random seeds and rates, every injected
// packet is eventually delivered exactly once after a drain period — no
// loss, no duplication, no deadlock. The audit's packet ledger keeps the
// books: a second delivery of a packet is a violation (it is no longer in
// flight), and after the drain the ledger must hold nothing while every
// injected packet counts as delivered.
func TestFlitConservationProperty(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for _, policy := range []PolicyKind{PolicyNone, PolicyHistory} {
			n, violations := auditedSmall(t, policy)
			u := &traffic.Uniform{
				Topo: n.Topo, RatePerNode: 0.03,
				CyclePeriod: n.Cfg.RouterPeriod, Seed: seed,
			}
			n.Launch(u, 10*sim.Microsecond)
			n.BeginMeasurement()
			n.Run(10_000)
			n.Run(30_000) // generous drain (links may be slow/transitioning)
			if n.InFlight != 0 {
				t.Fatalf("seed %d policy %v: %d packets lost or stuck", seed, policy, n.InFlight)
			}
			r := n.Snapshot()
			if r.InjectedPkts == 0 || r.DeliveredPkts != r.InjectedPkts {
				t.Fatalf("seed %d policy %v: %d packets delivered of %d injected", seed, policy, r.DeliveredPkts, r.InjectedPkts)
			}
			if l := len(n.Auditor().Checkpoint().Ledger); l != 0 {
				t.Fatalf("seed %d policy %v: audit ledger still holds %d packets", seed, policy, l)
			}
			for _, v := range *violations {
				t.Fatalf("seed %d policy %v: %v", seed, policy, v)
			}
		}
	}
}

// TestPacketFlitOrderProperty: flits of each packet eject in sequence
// order (wormhole ordering survives DVS link churn). The audit's eject rule
// checks every ejected flit against the count of its packet's flits
// ejected before it, so any reordering or interleaving is a violation.
func TestPacketFlitOrderProperty(t *testing.T) {
	n, violations := auditedSmall(t, PolicyHistory)
	u := &traffic.Uniform{
		Topo: n.Topo, RatePerNode: 0.05,
		CyclePeriod: n.Cfg.RouterPeriod, Seed: 77,
	}
	n.Launch(u, 10*sim.Microsecond)
	n.BeginMeasurement()
	n.Run(40_000)
	if n.Snapshot().DeliveredPkts == 0 {
		t.Fatal("nothing delivered")
	}
	for _, v := range *violations {
		t.Errorf("%v", v)
	}
}

// TestTraceHooks: the network logs injections, deliveries and transitions.
func TestTraceHooks(t *testing.T) {
	n := mustNew(t, smallConfig(PolicyHistory))
	n.Trace = trace.NewBuffer(100000, -1)
	u := &traffic.Uniform{
		Topo: n.Topo, RatePerNode: 0.02,
		CyclePeriod: n.Cfg.RouterPeriod, Seed: 5,
	}
	n.Launch(u, 20*sim.Microsecond)
	n.Run(30_000)
	kinds := map[trace.Kind]int{}
	for _, e := range n.Trace.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []trace.Kind{trace.PacketInjected, trace.PacketDelivered,
		trace.PolicyDecision, trace.LinkTransition} {
		if kinds[k] == 0 {
			t.Errorf("no %v events traced", k)
		}
	}
}

// TestMeasurementExcludesWarmupPackets: packets created before
// BeginMeasurement never count toward latency or throughput.
func TestMeasurementExcludesWarmupPackets(t *testing.T) {
	n := mustNew(t, smallConfig(PolicyNone))
	n.Inject(0, 15, 0, -1) // pre-measurement packet
	n.Run(200)             // delivered during warmup
	n.BeginMeasurement()
	n.Run(500)
	r := n.Snapshot()
	if r.DeliveredPkts != 0 || r.InjectedPkts != 0 {
		t.Errorf("warmup packet leaked into measurement: %+v", r)
	}
	// A packet injected after the epoch counts.
	n.Inject(0, 15, n.Now(), -1)
	n.Run(200)
	if got := n.Snapshot().DeliveredPkts; got != 1 {
		t.Errorf("measured delivered = %d, want 1", got)
	}
}

// TestMeasuredCycles: a measurement counts the router cycles run since
// BeginMeasurement, also from cycle 0, where the scheduler clock trails the
// cycle counter by one step, and across a checkpoint fork.
func TestMeasuredCycles(t *testing.T) {
	for _, tc := range []struct{ warmup, cycles int64 }{{0, 1}, {0, 1_000}, {500, 1_000}} {
		n := mustNew(t, smallConfig(PolicyNone))
		n.Run(tc.warmup)
		n.BeginMeasurement()
		n.Run(tc.cycles)
		if got := n.Snapshot(); got.Cycles != tc.cycles || got.ThroughputPkts != 0 {
			t.Errorf("warm-up %d, %d cycles: measured %d cycles, throughput %v", tc.warmup, tc.cycles, got.Cycles, got.ThroughputPkts)
		}
	}

	n := mustNew(t, smallConfig(PolicyNone))
	n.BeginMeasurement()
	n.Inject(0, 15, 0, -1)
	n.Run(300)
	st, err := n.CaptureCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	fork := mustNew(t, smallConfig(PolicyNone))
	if err := fork.RestoreCheckpoint(st, nil); err != nil {
		t.Fatal(err)
	}
	fork.Run(700)
	if got := fork.Snapshot(); got.Cycles != 1_000 || got.DeliveredPkts != 1 {
		t.Errorf("fork: measured %d cycles and %d packets, want 1000 and 1", got.Cycles, got.DeliveredPkts)
	}
}

// TestInjectionBandwidthOneFlitPerCycle: a node's source queue drains at
// most one flit per router cycle into the local input port.
func TestInjectionBandwidthOneFlitPerCycle(t *testing.T) {
	n := mustNew(t, smallConfig(PolicyNone))
	// Queue 4 packets (20 flits) at node 0 simultaneously.
	for i := 0; i < 4; i++ {
		n.Inject(0, 15, 0, -1)
	}
	// After c cycles, at most c flits can have entered the router; the
	// local input port buffered + forwarded count is bounded by the cycle
	// count.
	n.Run(10)
	in := n.Routers[0].Inputs[topology.LocalPort]
	entered := in.Occupied() + int(n.Routers[0].FlitsSwitched)
	if entered > 10 {
		t.Errorf("%d flits entered in 10 cycles (injection bandwidth violated)", entered)
	}
	if entered == 0 {
		t.Error("nothing injected at all")
	}
}
