// Package noc is the public API of the link-DVS interconnection-network
// library: a flit-level simulator of k-ary n-cube networks built from
// pipelined virtual-channel routers and dynamically voltage-scaled links,
// with the history-based DVS policy of Shang, Peh & Jha (HPCA 2003), the
// paper's two-level self-similar workload model, and the experiment
// harness that regenerates the paper's tables and figures.
//
// Quickstart:
//
//	cfg := noc.DefaultConfig()
//	net, err := noc.New(cfg)
//	if err != nil { ... }
//	net.AttachTwoLevel(noc.TwoLevelWorkload{Rate: 1.0, Tasks: 100, TaskDuration: time.Millisecond})
//	net.Warmup(60_000)
//	res := net.Measure(150_000)
//	fmt.Printf("latency %.0f cycles, %.1fX power savings\n", res.MeanLatencyCycles, res.PowerSavingsX)
package noc

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Policy names accepted by Config.Policy.
const (
	PolicyHistory            = "history"             // the paper's Algorithm 1
	PolicyNone               = "none"                // non-DVS baseline, links at full speed
	PolicyLinkUtilOnly       = "link-util-only"      // Sec 3.1 ablation without the BU litmus
	PolicyAdaptiveThresholds = "adaptive-thresholds" // Sec 4.4.2 extension
)

// Config selects the network platform. The zero value is not usable; start
// from DefaultConfig, which is the paper's Section 4.2 setup.
type Config struct {
	// MeshSize is k of the k-ary n-cube; Dims is n; Torus adds wraparound.
	MeshSize, Dims int
	Torus          bool

	// VCs, BufPerPort and PipelineDepth size each router.
	VCs, BufPerPort, PipelineDepth int

	// Policy is one of the Policy* constants; Routing is "dor" or
	// "adaptive".
	Policy, Routing string

	// W, H, BCongested, TLLow, TLHigh, THLow, THHigh are the history-based
	// policy parameters (paper Table 1).
	W, H                         int
	BCongested                   float64
	TLLow, TLHigh, THLow, THHigh float64

	// VoltTransition and FreqTransitionCycles set the DVS link transition
	// latencies (paper Section 2: 10 us and 100 link cycles).
	VoltTransition       time.Duration
	FreqTransitionCycles int

	// Seed selects the deterministic random stream family.
	Seed uint64

	// Audit enables the runtime invariant checker: flit and credit
	// conservation, VC state-machine legality, DVS link legality and a
	// deadlock watchdog, verified continuously as the simulation runs.
	// The first violation panics. Results are identical with or without
	// it; only speed differs.
	Audit bool
}

// DefaultConfig returns the paper's experimental platform: an 8x8 mesh of
// 1 GHz routers (2 VCs, 128 flit buffers/port, 13-stage pipeline),
// ten-level DVS links from 125 MHz/0.9 V to 1 GHz/2.5 V, and Table 1
// policy parameters.
func DefaultConfig() Config {
	p := core.DefaultParams()
	return Config{
		MeshSize:             8,
		Dims:                 2,
		VCs:                  2,
		BufPerPort:           128,
		PipelineDepth:        13,
		Policy:               PolicyHistory,
		Routing:              "dor",
		W:                    p.W,
		H:                    p.H,
		BCongested:           p.BCongested,
		TLLow:                p.TLLow,
		TLHigh:               p.TLHigh,
		THLow:                p.THLow,
		THHigh:               p.THHigh,
		VoltTransition:       10 * time.Microsecond,
		FreqTransitionCycles: 100,
		Seed:                 1,
	}
}

// lower maps the public config onto the internal platform config.
func (c Config) lower() (network.Config, error) {
	cfg := network.NewConfig()
	cfg.K = c.MeshSize
	cfg.N = c.Dims
	cfg.Torus = c.Torus
	cfg.Router.Ports = 1 + 2*c.Dims
	cfg.Router.VCs = c.VCs
	cfg.Router.BufPerPort = c.BufPerPort
	cfg.Router.PipelineDepth = c.PipelineDepth
	cfg.Routing = c.Routing
	cfg.DVS = core.Params{
		W: c.W, H: c.H, BCongested: c.BCongested,
		TLLow: c.TLLow, TLHigh: c.TLHigh, THLow: c.THLow, THHigh: c.THHigh,
	}
	cfg.Link.VoltTransition = sim.Time(c.VoltTransition.Nanoseconds()) * sim.Nanosecond
	cfg.Link.FreqTransitionCycles = c.FreqTransitionCycles
	cfg.Seed = c.Seed
	cfg.Audit.Enabled = c.Audit
	switch c.Policy {
	case PolicyHistory, "":
		cfg.Policy = network.PolicyHistory
	case PolicyNone:
		cfg.Policy = network.PolicyNone
	case PolicyLinkUtilOnly:
		cfg.Policy = network.PolicyLinkUtilOnly
	case PolicyAdaptiveThresholds:
		cfg.Policy = network.PolicyAdaptiveThresholds
	default:
		return cfg, fmt.Errorf("noc: unknown policy %q", c.Policy)
	}
	return cfg, cfg.Validate()
}

// Network is a runnable simulation instance.
type Network struct {
	inner *network.Network
}

// New builds a network from a config.
func New(c Config) (*Network, error) {
	lowered, err := c.lower()
	if err != nil {
		return nil, err
	}
	n, err := network.New(lowered)
	if err != nil {
		return nil, err
	}
	return &Network{inner: n}, nil
}

// Nodes reports the node count.
func (n *Network) Nodes() int { return n.inner.Topo.Nodes() }

// TwoLevelWorkload parameterizes the paper's two-level self-similar
// traffic model.
type TwoLevelWorkload struct {
	// Rate is the aggregate packet injection target in packets per router
	// cycle across the whole network.
	Rate float64
	// Tasks is the average number of concurrent task sessions (paper: 50 or
	// 100); TaskDuration their mean length (paper: 10 us to 1 ms). Zero
	// selects the model's default (100 tasks, 1 ms); a negative value is an
	// error.
	Tasks        int
	TaskDuration time.Duration
	// Seed overrides the config seed when nonzero.
	Seed uint64
}

// params lowers the public workload onto the traffic model's parameters;
// seed is the platform's, used when the workload names none. It refuses a
// negative task count or duration, which would otherwise run the default.
func (w TwoLevelWorkload) params(seed uint64) (traffic.TwoLevelParams, error) {
	p := traffic.NewTwoLevelParams(w.Rate)
	switch {
	case w.Tasks < 0:
		return p, fmt.Errorf("noc: two-level workload: Tasks %d is negative", w.Tasks)
	case w.TaskDuration < 0:
		return p, fmt.Errorf("noc: two-level workload: TaskDuration %v is negative", w.TaskDuration)
	}
	if w.Tasks > 0 {
		p.AvgTasks = w.Tasks
	}
	if w.TaskDuration > 0 {
		p.AvgTaskDuration = sim.Time(w.TaskDuration.Nanoseconds()) * sim.Nanosecond
	}
	p.Seed = w.Seed
	if p.Seed == 0 {
		p.Seed = seed
	}
	return p, nil
}

// Validate reports whether the workload can drive a network built from c —
// the checks AttachTwoLevel and NewWarmedTwoLevel apply, among them a
// finite rate in (0, nodes] packets/cycle and no negative task count or
// duration — without building either.
func (w TwoLevelWorkload) Validate(c Config) error {
	lowered, err := c.lower()
	if err != nil {
		return err
	}
	p, err := w.params(lowered.Seed)
	if err != nil {
		return err
	}
	_, err = traffic.NewTwoLevel(p, topology.New(lowered.K, lowered.N, lowered.Torus))
	return err
}

// ValidNodeRate reports whether ratePerNode is usable by the per-node
// workloads (AttachUniform, the permutation patterns, AttachHotspot):
// finite and in (0, 1] packets per cycle.
func ValidNodeRate(ratePerNode float64) error { return traffic.ValidNodeRate(ratePerNode) }

// AttachTwoLevel arms the two-level workload for the rest of the
// simulation (one full second of simulated time, effectively unbounded).
func (n *Network) AttachTwoLevel(w TwoLevelWorkload) error {
	p, err := w.params(n.inner.Cfg.Seed)
	if err != nil {
		return err
	}
	m, err := traffic.NewTwoLevel(p, n.inner.Topo)
	if err != nil {
		return err
	}
	n.inner.Launch(m, sim.Time(1e12)) // one simulated second
	return nil
}

// AttachUniform arms uniform-random Poisson traffic at ratePerNode packets
// per cycle per node. It refuses a rate ValidNodeRate rejects.
func (n *Network) AttachUniform(ratePerNode float64) error {
	if err := ValidNodeRate(ratePerNode); err != nil {
		return err
	}
	u := &traffic.Uniform{
		Topo:        n.inner.Topo,
		RatePerNode: ratePerNode,
		CyclePeriod: n.inner.Cfg.RouterPeriod,
		Seed:        n.inner.Cfg.Seed,
	}
	n.inner.Launch(u, sim.Time(1e12))
	return nil
}

// AttachTranspose arms matrix-transpose permutation traffic. Like every
// permutation pattern, it refuses a rate ValidNodeRate rejects.
func (n *Network) AttachTranspose(ratePerNode float64) error {
	return n.attachPermutation(ratePerNode, traffic.Transpose(n.inner.Topo), nil)
}

// AttachBitReverse arms bit-reversal permutation traffic. It refuses a
// node count that is not a power of two.
func (n *Network) AttachBitReverse(ratePerNode float64) error {
	pattern, err := traffic.BitReverse(n.inner.Topo)
	return n.attachPermutation(ratePerNode, pattern, err)
}

// AttachShuffle arms perfect-shuffle permutation traffic. It refuses a
// node count that is not a power of two.
func (n *Network) AttachShuffle(ratePerNode float64) error {
	pattern, err := traffic.Shuffle(n.inner.Topo)
	return n.attachPermutation(ratePerNode, pattern, err)
}

// AttachTornado arms tornado traffic: each node sends halfway around its
// row, the worst case for rings and tori.
func (n *Network) AttachTornado(ratePerNode float64) error {
	return n.attachPermutation(ratePerNode, traffic.Tornado(n.inner.Topo), nil)
}

// attachPermutation arms pattern at ratePerNode, or returns patternErr, the
// pattern constructor's refusal, without arming anything.
func (n *Network) attachPermutation(ratePerNode float64, pattern func(int) int, patternErr error) error {
	if patternErr != nil {
		return patternErr
	}
	if err := ValidNodeRate(ratePerNode); err != nil {
		return err
	}
	p := &traffic.Permutation{
		Topo:        n.inner.Topo,
		RatePerNode: ratePerNode,
		CyclePeriod: n.inner.Cfg.RouterPeriod,
		Seed:        n.inner.Cfg.Seed,
		Pattern:     pattern,
	}
	n.inner.Launch(p, sim.Time(1e12))
	return nil
}

// AttachHotspot arms uniform traffic in which `fraction` of all packets
// target the hot node. It refuses a rate ValidNodeRate rejects.
func (n *Network) AttachHotspot(ratePerNode float64, hot int, fraction float64) error {
	if err := ValidNodeRate(ratePerNode); err != nil {
		return err
	}
	h := &traffic.Hotspot{
		Topo:        n.inner.Topo,
		RatePerNode: ratePerNode,
		CyclePeriod: n.inner.Cfg.RouterPeriod,
		Seed:        n.inner.Cfg.Seed,
		Hot:         hot,
		Fraction:    fraction,
	}
	n.inner.Launch(h, sim.Time(1e12))
	return nil
}

// Inject enqueues a single packet (for hand-driven simulations).
func (n *Network) Inject(src, dst int) {
	n.inner.Inject(src, dst, n.inner.Now(), -1)
}

// Warmup advances the network without measuring.
func (n *Network) Warmup(cycles int64) { n.inner.Run(cycles) }

// Results summarizes one measurement interval.
type Results struct {
	Cycles            int64
	InjectedPackets   int64
	DeliveredPackets  int64
	MeanLatencyCycles float64
	// P50LatencyCycles and P99LatencyCycles are the median and tail
	// latencies (log-histogram approximation).
	P50LatencyCycles, P99LatencyCycles float64
	// ThroughputPkts is delivered packets per router cycle network-wide.
	ThroughputPkts float64
	// AvgPowerW is mean link power; NormalizedPower divides by the non-DVS
	// baseline (all channels at full speed); PowerSavingsX is its inverse.
	AvgPowerW       float64
	NormalizedPower float64
	PowerSavingsX   float64
}

// Measure runs the given cycles with fresh statistics and reports results.
func (n *Network) Measure(cycles int64) Results {
	n.inner.BeginMeasurement()
	n.inner.Run(cycles)
	r := n.inner.Snapshot()
	return Results{
		Cycles:            r.Cycles,
		InjectedPackets:   r.InjectedPkts,
		DeliveredPackets:  r.DeliveredPkts,
		MeanLatencyCycles: r.MeanLatency,
		P50LatencyCycles:  r.P50Latency,
		P99LatencyCycles:  r.P99Latency,
		ThroughputPkts:    r.ThroughputPkts,
		AvgPowerW:         r.AvgPowerW,
		NormalizedPower:   r.NormalizedPwr,
		PowerSavingsX:     r.SavingsX,
	}
}

// InFlight reports packets injected but not yet delivered.
func (n *Network) InFlight() int64 { return n.inner.InFlight }

// AuditStats summarizes the runtime invariant checker's work so far.
type AuditStats struct {
	Scans      int64 // structural scans (conservation, state machines, DVS)
	Checks     int64 // individual invariant evaluations
	Violations int64
}

// AuditStats reports the invariant checker's counters; ok is false when
// the network was built without Config.Audit.
func (n *Network) AuditStats() (s AuditStats, ok bool) {
	a := n.inner.Auditor()
	if a == nil {
		return AuditStats{}, false
	}
	st := a.Stats()
	return AuditStats{Scans: st.Scans, Checks: st.Checks, Violations: st.Violations}, true
}

// SkipStats summarizes the activity-driven core's work avoidance over the
// network's lifetime.
type SkipStats struct {
	// CyclesExecuted ran through the full per-cycle step; CyclesFastForwarded
	// were jumped over while the network was quiescent, in FastForwards
	// distinct jumps.
	CyclesExecuted      int64
	CyclesFastForwarded int64
	FastForwards        int64
	// RouterTicks were performed; RouterTicksElided are the ticks the
	// always-tick baseline would have made but the active list or a
	// fast-forward skipped. ElisionRatio is elided / (ticks + elided).
	RouterTicks       int64
	RouterTicksElided int64
	ElisionRatio      float64
	// RouterTicksSlept is the part of RouterTicksElided spent on routers
	// that were busy but asleep, waiting out their output pipeline or a slow
	// link; the rest were idle.
	RouterTicksSlept int64
	// ActiveHist[k] counts executed cycles that ticked exactly k routers.
	ActiveHist []int64
}

// SkipStats reports the activity-driven core's skip counters. They measure
// work avoided, never results: the equivalence tests hold every run
// byte-identical to a tick-everything reference core whose elision
// counters stay zero.
func (n *Network) SkipStats() SkipStats {
	s := n.inner.SkipStats()
	return SkipStats{
		CyclesExecuted:      s.CyclesExecuted,
		CyclesFastForwarded: s.CyclesFastForwarded,
		FastForwards:        s.FastForwards,
		RouterTicks:         s.RouterTicks,
		RouterTicksElided:   s.RouterTicksElided,
		ElisionRatio:        s.ElisionRatio(),
		RouterTicksSlept:    s.RouterTicksSlept,
		ActiveHist:          s.ActiveHist,
	}
}

// LevelHistogram reports, for each DVS level, how many links currently
// operate there — a snapshot of where the policy has parked the network.
func (n *Network) LevelHistogram() []int {
	table := link.MustTable(link.NewParams())
	hist := make([]int, table.Params.Levels)
	for _, l := range n.inner.Links() {
		hist[l.Level()]++
	}
	return hist
}

// MaxTraceEvents bounds EnableTrace's ring, which is allocated whole up
// front at 48 bytes an event: a million events, 48 MiB.
const MaxTraceEvents = 1 << 20

// EnableTrace starts recording packet and DVS events into a ring holding
// the most recent `capacity` events of kind ("inject", "deliver",
// "transition", "policy"; empty means every kind). Events of other kinds
// are never recorded, so the ring keeps the last `capacity` of the kind
// asked for. A capacity outside [1, MaxTraceEvents] or an unknown kind is
// an error.
func (n *Network) EnableTrace(capacity int, kind string) error {
	if capacity < 1 || capacity > MaxTraceEvents {
		return fmt.Errorf("noc: trace capacity %d outside [1, %d]", capacity, MaxTraceEvents)
	}
	k, err := traceKind(kind)
	if err != nil {
		return err
	}
	n.inner.Trace = trace.NewBuffer(capacity, k)
	return nil
}

// DumpTrace writes the retained trace events to w.
func (n *Network) DumpTrace(w io.Writer) error {
	if n.inner.Trace == nil {
		return errors.New("noc: tracing not enabled")
	}
	return n.inner.Trace.Dump(w)
}

// ValidTraceKind reports whether kind is a filter EnableTrace accepts, so
// a command can refuse a bad one before it simulates.
func ValidTraceKind(kind string) error {
	_, err := traceKind(kind)
	return err
}

// traceKind maps an EnableTrace filter name to its event kind, -1 for all.
func traceKind(kind string) (int, error) {
	switch kind {
	case "":
		return -1, nil
	case "inject":
		return int(trace.PacketInjected), nil
	case "deliver":
		return int(trace.PacketDelivered), nil
	case "transition":
		return int(trace.LinkTransition), nil
	case "policy":
		return int(trace.PolicyDecision), nil
	}
	return 0, fmt.Errorf("noc: unknown trace kind %q", kind)
}
