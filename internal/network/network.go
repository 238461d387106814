// Package network assembles topology, routers, DVS links, the history-based
// DVS policy and a traffic model into the paper's simulation platform: a
// k-ary n-cube of 1 GHz pipelined virtual-channel routers whose inter-router
// channels are DVS links in their own clock domains, exchanging flits by
// message passing (scheduled arrival events), with credit-based flow
// control whose credit-return latency tracks the reverse channel's speed.
package network

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/link"
	"repro/internal/power"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// PolicyKind selects the DVS controller attached to each output port.
type PolicyKind int

const (
	// PolicyNone pins every link at the top level (the non-DVS baseline).
	PolicyNone PolicyKind = iota
	// PolicyHistory is the paper's history-based DVS (Algorithm 1).
	PolicyHistory
	// PolicyLinkUtilOnly is the Section 3.1 ablation without the
	// buffer-utilization congestion litmus.
	PolicyLinkUtilOnly
	// PolicyAdaptiveThresholds is the Section 4.4.2 extension that walks
	// the Table 2 threshold settings online.
	PolicyAdaptiveThresholds
)

func (k PolicyKind) String() string {
	switch k {
	case PolicyNone:
		return "none"
	case PolicyHistory:
		return "history"
	case PolicyLinkUtilOnly:
		return "link-util-only"
	case PolicyAdaptiveThresholds:
		return "adaptive-thresholds"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// Config assembles a complete simulation platform. NewConfig returns the
// paper's Section 4.2 experimental setup.
type Config struct {
	// K, N, Torus shape the k-ary n-cube (paper: 8-ary 2-cube mesh).
	K, N  int
	Torus bool

	// Router is the per-node router microarchitecture.
	Router router.Config
	// Link is the DVS link design.
	Link link.Params
	// Policy selects the per-port DVS controller and its parameters.
	Policy PolicyKind
	// DVS holds the history-based policy parameters (Table 1).
	DVS core.Params
	// Routing names the routing algorithm ("dor" or "adaptive").
	Routing string

	// RouterPeriod is the router clock (paper: 1 GHz).
	RouterPeriod sim.Duration
	// StartLevel is the initial link level (-1 means the top level).
	StartLevel int

	// Seed feeds the traffic model when one is attached via Run.
	Seed uint64

	// Tiles partitions the mesh into that many contiguous blocks of
	// routers, each advanced by its own scheduler between conservative
	// lookahead barriers, so one simulation can use several cores. Output
	// is byte-identical at every tile count (see tile.go for the
	// argument); 0 or 1 selects the single-scheduler path unchanged. A
	// tiled network requires a recorded trace workload (see Launch) and
	// refuses checkpoint capture. Trace availability is therefore the
	// tile-eligibility gate: the streaming replay's arrival budgets
	// (internal/traffic) are sized so even -full experiment points record
	// traces, and a point that still exceeds them falls back to the live
	// model — losing tile eligibility — with a one-time stderr note from
	// the harness naming the point and reason.
	Tiles int

	// Audit configures the runtime invariant checker (internal/audit).
	// Disabled by default; when Audit.Enabled, the platform verifies flit
	// and credit conservation, VC state-machine legality, DVS link
	// legality and deadlock freedom as it runs.
	Audit audit.Options
}

// maxNodes bounds K^N in Validate: a 256x256 mesh, a thousand times the
// paper's platform.
const maxNodes = 1 << 16

// NewConfig returns the paper's experimental platform: 8x8 mesh, 1 GHz
// 13-stage routers with 2 VCs and 128 flit buffers per port, ten-level DVS
// links, Table 1 policy parameters.
func NewConfig() Config {
	return Config{
		K:            8,
		N:            2,
		Torus:        false,
		Router:       router.NewConfig(5),
		Link:         link.NewParams(),
		Policy:       PolicyHistory,
		DVS:          core.DefaultParams(),
		Routing:      "dor",
		RouterPeriod: sim.Nanosecond,
		StartLevel:   -1,
		Seed:         1,
	}
}

// Validate reports whether the configuration is coherent.
func (c Config) Validate() error {
	if c.K < 2 || c.N < 1 {
		return fmt.Errorf("network: invalid cube %d-ary %d", c.K, c.N)
	}
	// K^N, refusing before the product can overflow or the build can
	// exhaust memory (a router costs ~19 kB; trace arrivals carry node ids
	// as int32).
	nodes := 1
	for i := 0; i < c.N; i++ {
		if nodes > maxNodes/c.K {
			return fmt.Errorf("network: %d-ary %d-cube has more than %d routers, the supported maximum", c.K, c.N, maxNodes)
		}
		nodes *= c.K
	}
	if want := 1 + 2*c.N; c.Router.Ports != want {
		return fmt.Errorf("network: router has %d ports, topology needs %d", c.Router.Ports, want)
	}
	if err := c.Router.Validate(); err != nil {
		return err
	}
	if err := c.DVS.Validate(); err != nil {
		return err
	}
	if c.RouterPeriod <= 0 {
		return fmt.Errorf("network: router period %v", c.RouterPeriod)
	}
	algo, err := routing.ByName(c.Routing)
	if err != nil {
		return err
	}
	// The routing algorithms panic on platforms they cannot route
	// deadlock-free; refuse those here instead.
	_, adaptive := algo.(routing.MinimalAdaptive)
	switch {
	case adaptive && c.Torus:
		return fmt.Errorf("network: %s routing on a torus (it supports meshes only)", algo.Name())
	case adaptive && c.Router.VCs < 2:
		return fmt.Errorf("network: %s routing with %d VC (needs one escape plus one adaptive)", algo.Name(), c.Router.VCs)
	case c.Torus && c.Router.VCs < 2:
		return fmt.Errorf("network: torus with %d VC (dateline assignment needs 2)", c.Router.VCs)
	}
	if _, err := link.NewTable(c.Link); err != nil {
		return err
	}
	if c.Tiles < 0 {
		return fmt.Errorf("network: negative tile count %d", c.Tiles)
	}
	if c.Tiles > nodes {
		return fmt.Errorf("network: %d tiles over %d routers", c.Tiles, nodes)
	}
	return nil
}

// portCtl is the per-output-port DVS machinery: the policy instance and the
// channel it drives.
type portCtl struct {
	policy     core.Policy
	out        *router.OutputPort
	link       *link.DVSLink
	node, port int
}

// injector streams packets from a node's source queue into the local input
// port, one flit per router cycle, keeping each packet's flits contiguous
// on one VC. The queue is a power-of-two ring (head/count over a reused
// backing array) so saturated sources — whose queues never drain — do not
// churn slice backing arrays.
type injector struct {
	queue   []*flow.Packet
	qHead   int
	qLen    int
	current []*flow.Flit // remaining flits of the packet being injected
	vc      int
}

// push appends one packet to the source queue ring.
func (inj *injector) push(p *flow.Packet) {
	if inj.qLen == len(inj.queue) {
		size := 2 * len(inj.queue)
		if size == 0 {
			size = 16
		}
		grown := make([]*flow.Packet, size)
		for i := 0; i < inj.qLen; i++ {
			grown[i] = inj.queue[(inj.qHead+i)&(len(inj.queue)-1)]
		}
		inj.queue = grown
		inj.qHead = 0
	}
	inj.queue[(inj.qHead+inj.qLen)&(len(inj.queue)-1)] = p
	inj.qLen++
}

// pop removes and returns the front packet; the queue must be non-empty.
func (inj *injector) pop() *flow.Packet {
	p := inj.queue[inj.qHead]
	inj.queue[inj.qHead] = nil
	inj.qHead = (inj.qHead + 1) & (len(inj.queue) - 1)
	inj.qLen--
	return p
}

// wheelSpan is the span, in router cycles, of the sleepers' wake wheel: a
// wake due that many cycles out or more is parked again from the slot one
// span ahead until it is due.
const wheelSpan = 64

// ringLen sizes the message ring: the smallest power of two above the
// longest per-level delay, so every flit serialization and credit return
// lands in a bucket that is not the one being drained (16 slots for the
// paper's 1 GHz router and 125 MHz bottom level, 128 at a 100 ps router
// clock).
func ringLen(lvlCycles []int64) int {
	return 1 << bits.Len64(uint64(slices.Max(lvlCycles)))
}

// arrivalMsg is a flit landing at a router input port. node is the
// destination router, kept so delivery can re-arm it on the active list.
type arrivalMsg struct {
	in   *router.InputPort
	flit *flow.Flit
	node int
}

// creditMsg returns one buffer slot to an upstream output port.
type creditMsg struct {
	out *router.OutputPort
	vc  int
}

// ringBucket holds the messages due in one future router cycle.
type ringBucket struct {
	arrivals []arrivalMsg
	credits  []creditMsg
}

// chanEnd is the fixed far end of one directed channel, resolved once at
// construction so a flit-hop never recomputes topology: the downstream
// router and its input port, the dimension of travel, and whether a head
// flit crossing the channel crosses a torus dateline. The zero value (nil
// in) marks the local port and unconnected mesh-edge ports.
type chanEnd struct {
	in   *router.InputPort
	node int
	dim  int
	wrap bool
}

// Network is a runnable simulation instance.
type Network struct {
	Cfg   Config
	Topo  *topology.Cube
	Sched *sim.Scheduler
	Table *link.Table

	Routers []*router.Router
	// Links maps (src node, output port) to the channel's DVS link.
	linkAt [][]*link.DVSLink
	ctls   []*portCtl
	algo   routing.Algorithm
	// chanEnds[node*ports+port] is the far end of the channel leaving node
	// by port. lvlCycles[level] is a link's flit serialization (and credit
	// return) delay at that level in whole router cycles,
	// ceil(Period[level]/RouterPeriod): a message sent on the edge of cycle
	// c over a link at that level is due at cycle c + lvlCycles[level].
	chanEnds  []chanEnd
	lvlCycles []int64

	injectors []*injector
	nextPkt   int64
	cycle     int64

	// pool recycles packet/flit blocks: a delivered packet's storage backs
	// a future injection, so steady-state traffic allocates nothing.
	// Recycling is skipped while an OnDeliver observer is attached, since
	// the observer may legitimately retain delivered packets.
	pool flow.Pool

	// Measurement state (reset by BeginMeasurement).
	Lat       *stats.Latency
	Meter     *power.Meter
	measStart sim.Time
	measCycle int64 // cycle counter at BeginMeasurement
	injected  int64
	delivered int64

	// InFlight tracks packets injected but not yet delivered (for drain
	// checks and deadlock detection in tests).
	InFlight int64

	// Probe, when set, runs every ProbeEvery cycles before the DVS policy
	// (used by the figure harnesses to sample utilizations).
	Probe      func(now sim.Time)
	ProbeEvery int64

	// OnDeliver, when set, observes every delivered packet.
	OnDeliver func(p *flow.Packet)

	// Trace, when non-nil, records packet and DVS events.
	Trace *trace.Buffer

	// ring buffers flit arrivals and credit returns per due cycle, replacing
	// per-message scheduler events; ringMask is its length minus one (see
	// ringLen).
	ring     []ringBucket
	ringMask int64

	// Activity tracking: the simulation core is activity-driven. activeMask
	// marks the routers Step visits — those whose state a Tick could change
	// (occupied input VCs or draining output pipelines) — in ascending node
	// order, so the event sequence matches the tick-everything baseline
	// exactly. injMask marks nodes whose source injector holds work. Flit
	// arrivals (ring, injection) re-arm a router; Step retires a router at
	// the end of its own pass once its Busy predicate went false.
	// Under noskip every bit stays permanently set and both masks
	// degenerate to the original tick-everything loops.
	//
	// Waiting routers sleep: a busy router with no buffered flits can do
	// nothing before wakeAt[node], the earliest instant a queued tx front is
	// both out of the output pipeline and facing a free link (sleepUntil).
	// Step parks it in sleepMask, off activeMask but still counted in
	// activeCount — to quiescence and fast-forward it is as busy as ever —
	// until markActive (a flit arrived) or its wake cycle moves it back: the
	// wheel holds, per cycle of its wheelSpan, a mask of the sleepers due
	// then; a wake further out sits in the slot one span ahead and is parked
	// again from there. Nobody sleeps under noskip or on a tiled network.
	activeMask  []uint64
	activeCount int
	sleepMask   []uint64
	wakeAt      []sim.Time
	wheel       []uint64
	// oversleep is added to every computed wake instant. Test hook: one
	// router period of it must trip the audit's late-wake invariant.
	oversleep sim.Duration
	injMask   []uint64
	injCount  int
	// ringCount totals messages buffered across ring buckets, so the
	// quiescence test is one compare instead of a bucket scan.
	ringCount int
	// noskip selects the tick-everything reference core: no router is
	// retired, parked or fast-forwarded past. Test hook, set before Launch
	// together with every mask bit: the equivalence tests compare the
	// activity-driven core against it.
	noskip bool
	skips  SkipStats

	// aud, when non-nil, is the runtime invariant checker; every hook site
	// nil-checks it so the disabled cost is one pointer compare.
	aud *audit.Checker

	// dvsHold freezes the DVS policies: while held, history windows never
	// close and no link transition can start, so the simulation is
	// policy-independent. Experiment warmups run held, which is what lets a
	// warmed-up state be checkpointed once and forked per policy variant.
	dvsHold bool
	// policiesTouched flips when a policy window closes on any real (non
	// NoDVS) controller — from then on the controllers carry history state a
	// checkpoint does not capture, so capture refuses.
	policiesTouched bool

	// Attached traffic model (Launch). replay is non-nil when the model is
	// a recorded trace, whose resumable walk makes the network
	// checkpointable.
	model   traffic.Model
	horizon sim.Time
	replay  *traffic.Replay

	// Tile-parallel state (tile.go). tiles is non-nil when Cfg.Tiles > 1:
	// each tile owns a contiguous block of routers and advances on its own
	// scheduler between extracted-lookahead barriers. tileOf maps a node to
	// its owning tile; lookahead is the constant floor of the per-window
	// extracted bound in router cycles (the minimum link latency).
	tiles     []*tileState
	tileOf    []int
	lookahead int64
	// tileMerged is the merge frontier: every cycle before it has been
	// drained into the global accumulators. Barrier elision lets the tiles'
	// cycle run ahead of it; mergeTiles closes the gap.
	tileMerged int64
	// forceTileWorkers pins the per-tile worker-goroutine path even on a
	// single-CPU host (where runTiled otherwise runs tiles inline, barriers
	// being pure overhead without a second core). Test hook: the race
	// detector must exercise the concurrent path regardless of GOMAXPROCS.
	forceTileWorkers bool
	// noTileElide disables barrier elision (every window ends in a merge);
	// test hook for the elision-equivalence suite.
	noTileElide bool
	// verifyLookahead checks, at every barrier merge, each cross-tile
	// message's due cycle against the bound its source tile promised when
	// the window was planned. Test hook; the audit turns the same check on.
	verifyLookahead bool
	// laViolations counts cross-tile messages that arrived before their
	// source tile's promised lookahead bound — always zero unless the bound
	// extraction is wrong. Counted under verifyLookahead or Audit.
	laViolations int64
}

// LookaheadViolations reports cross-tile messages observed before their
// source tile's promised bound. Populated only under lookahead
// verification or a running audit; any nonzero value is a
// lookahead-extraction bug.
func (n *Network) LookaheadViolations() int64 { return n.laViolations }

// SkipStats measures how much work the activity-driven core avoided. All
// counters cover the network's lifetime.
type SkipStats struct {
	// CyclesExecuted counts router cycles that ran through Step;
	// CyclesFastForwarded counts cycles jumped over while the network was
	// quiescent, in FastForwards distinct jumps. Executed + fast-forwarded
	// equals Cycle().
	CyclesExecuted      int64
	CyclesFastForwarded int64
	FastForwards        int64
	// RouterTicks counts Router.Tick calls performed; RouterTicksElided
	// counts the tick calls the always-tick baseline would have made but
	// the active list or a fast-forward skipped.
	RouterTicks       int64
	RouterTicksElided int64
	// RouterTicksSlept is the part of RouterTicksElided skipped because the
	// router, though busy, was asleep waiting out its output pipeline or a
	// slow link; the rest were idle. Zero on tiled networks, whose engine
	// does not sleep.
	RouterTicksSlept int64
	// ActiveHist[k] counts executed cycles that ticked exactly k routers.
	ActiveHist []int64
	// Tile-parallel barrier accounting (zero on untiled networks).
	// TileWindows counts planned lookahead windows; TileBarriers counts the
	// windows that ended in a real merge (outbox drain + accumulator
	// replay); TileBarriersElided counts the merges skipped because every
	// cross-tile outbox was empty and no probe or audit scan forced one.
	TileWindows        int64
	TileBarriers       int64
	TileBarriersElided int64
}

// ElisionRatio reports the fraction of baseline router ticks skipped.
func (s SkipStats) ElisionRatio() float64 {
	total := s.RouterTicks + s.RouterTicksElided
	if total == 0 {
		return 0
	}
	return float64(s.RouterTicksElided) / float64(total)
}

// SkipStats reports the activity-driven core's lifetime skip counters.
func (n *Network) SkipStats() SkipStats {
	s := n.skips
	s.ActiveHist = append([]int64(nil), n.skips.ActiveHist...)
	return s
}

// Sleeping counts routers currently asleep: busy, but holding only tx
// entries that must wait out the output pipeline or a slow link.
func (n *Network) Sleeping() int {
	c := 0
	for _, word := range n.sleepMask {
		c += bits.OnesCount64(word)
	}
	return c
}

// markActive arms one router on the active list: both flit arrival paths
// (ring bucket, injection) come through here. A sleeper is woken — it is
// already counted as active.
func (n *Network) markActive(node int) {
	w, b := node>>6, uint64(1)<<(node&63)
	if n.activeMask[w]&b == 0 {
		n.activeMask[w] |= b
		if n.sleepMask[w]&b != 0 {
			n.sleepMask[w] &^= b
		} else {
			n.activeCount++
		}
	}
}

// sleepUntil reports the earliest instant a router holding nothing but
// queued tx entries can act: the minimum over its queued output ports of
// the front entry clearing the output pipeline and — on link ports — the
// link being able to send. Only the router's own pass pushes or pops its
// tx queues and sends on its links, and DVS transitions only push a link's
// EarliestSend later, so the instant can be early, never late.
func sleepUntil(r *router.Router) sim.Time {
	wake := sim.Time(math.MaxInt64)
	for mask := r.TxPortMask(); mask != 0; mask &= mask - 1 {
		out := r.Outputs[bits.TrailingZeros32(mask)]
		at := out.TxFront().ReadyAt()
		if out.Link != nil {
			at = max(at, out.Link.EarliestSend())
		}
		wake = min(wake, at)
	}
	return wake
}

// sleep parks an active router that is busy with no buffered flits until
// sleepUntil — unless that is the very next cycle, when parking would skip
// no visit and only cost the bookkeeping (at saturation most waits are that
// short). now is the instant of the cycle just executed.
func (n *Network) sleep(node int, r *router.Router, now sim.Time) {
	at := sleepUntil(r) + n.oversleep
	if at <= now+n.Cfg.RouterPeriod {
		return
	}
	w, b := node>>6, uint64(1)<<(node&63)
	n.activeMask[w] &^= b
	n.sleepMask[w] |= b
	n.wakeAt[node] = at
	n.park(w, b, at)
}

// park puts a sleeper's bit in the wheel slot of its due cycle or, when that
// is wheelSpan or more cycles out, of n.cycle+wheelSpan, whose drain parks it
// again. n.cycle is the cycle being executed, its slot already drained, or
// on restore the next one, so the slot's next drain never comes after the
// due cycle and the chain of drains reaches that cycle exactly.
func (n *Network) park(w int, b uint64, at sim.Time) {
	due := min(n.dueCycle(at), n.cycle+wheelSpan)
	n.wheel[int(due%wheelSpan)*len(n.sleepMask)+w] |= b
}

// wakeDue drains this cycle's wheel slot, moving each router there that
// still sleeps and is due by now back to the active mask. A router not yet
// due — a far wake, or a stale bit of a router an arrival woke that has
// since parked again — is parked again; a router no longer asleep drops out
// with the rest of the slot.
func (n *Network) wakeDue(now sim.Time) {
	words := len(n.sleepMask)
	slot := n.wheel[int(n.cycle%wheelSpan)*words:][:words]
	for w, word := range slot {
		if word == 0 {
			continue
		}
		slot[w] = 0
		for word &= n.sleepMask[w]; word != 0; word &= word - 1 {
			node := w<<6 + bits.TrailingZeros64(word)
			b := uint64(1) << (node & 63)
			if at := n.wakeAt[node]; at > now {
				n.park(w, b, at)
			} else {
				n.sleepMask[w] &^= b
				n.activeMask[w] |= b
			}
		}
	}
}

// auditSleepers shows the audit every router of one mask word that this
// cycle's pass skips as asleep.
func (n *Network) auditSleepers(base int, asleep uint64, now sim.Time) {
	for ; asleep != 0; asleep &= asleep - 1 {
		n.aud.OnSleepSkip(base+bits.TrailingZeros64(asleep), now, n.cycle)
	}
}

// markInject arms one node's source injector.
func (n *Network) markInject(node int) {
	w, b := node>>6, uint64(1)<<(node&63)
	if n.injMask[w]&b == 0 {
		n.injMask[w] |= b
		n.injCount++
	}
}

// New builds the platform.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo := topology.New(cfg.K, cfg.N, cfg.Torus)
	table := link.MustTable(cfg.Link)
	algo, err := routing.ByName(cfg.Routing)
	if err != nil {
		return nil, err
	}
	n := &Network{
		Cfg:   cfg,
		Topo:  topo,
		Sched: &sim.Scheduler{},
		Table: table,
		algo:  algo,
	}
	start := cfg.StartLevel
	if start < 0 {
		start = table.Top()
	}

	// Routers.
	for id := 0; id < topo.Nodes(); id++ {
		r, err := router.New(id, cfg.Router)
		if err != nil {
			return nil, err
		}
		id := id
		r.RouteFn = func(p *flow.Packet, buf []routing.MaskCandidate) []routing.MaskCandidate {
			st := routing.State{LastDim: p.LastDim, Wrapped: p.Wrapped}
			return n.algo.RouteMask(topo, id, p.Dst, cfg.Router.VCs, st, buf)
		}
		n.Routers = append(n.Routers, r)
		n.injectors = append(n.injectors, &injector{})
	}

	n.lvlCycles = make([]int64, len(table.Period))
	for lvl, p := range table.Period {
		n.lvlCycles[lvl] = n.dueCycle(p)
	}
	n.ring = make([]ringBucket, ringLen(n.lvlCycles))
	n.ringMask = int64(len(n.ring) - 1)

	// Tile partitioning must precede link construction: a tiled channel's
	// link schedules its transition and serialization events on the
	// scheduler of the tile owning its source router.
	if cfg.Tiles > 1 {
		n.initTiles(cfg.Tiles)
	}

	// Channels: one DVS link per directed channel, the policy controller at
	// its source output port, and the channel's fixed far end.
	ports := cfg.Router.Ports
	n.linkAt = make([][]*link.DVSLink, topo.Nodes())
	for i := range n.linkAt {
		n.linkAt[i] = make([]*link.DVSLink, ports)
	}
	n.chanEnds = make([]chanEnd, topo.Nodes()*ports)
	channels := topo.Channels()
	for _, ch := range channels {
		port := topo.PortFor(ch.Dim, ch.Dir)
		l := link.NewDVSLink(table, n.schedFor(ch.Src), start)
		n.linkAt[ch.Src][port] = l
		out := n.Routers[ch.Src].Outputs[port]
		out.Link = l
		n.ctls = append(n.ctls, &portCtl{
			policy: n.newPolicy(), out: out, link: l, node: ch.Src, port: port,
		})
		// The flit lands on the port facing back along the channel.
		n.chanEnds[ch.Src*ports+port] = chanEnd{
			in:   n.Routers[ch.Dst].Inputs[topo.PortFor(ch.Dim, 1-ch.Dir)],
			node: ch.Dst, dim: ch.Dim, wrap: ch.Wrap,
		}
	}

	// Credit return paths: the input port of ch.Dst facing ch reaches back
	// to ch.Src's output port; the credit travels on the reverse channel
	// (every channel of a k-ary n-cube has one), so its latency is the
	// reverse link's current serialization period.
	for _, ch := range channels {
		back := topo.PortFor(ch.Dim, 1-ch.Dir) // ch.Dst's port facing ch.Src
		upstream := n.Routers[ch.Src].Outputs[topo.PortFor(ch.Dim, ch.Dir)]
		rev := n.linkAt[ch.Dst][back] // channel ch.Dst -> ch.Src
		if n.tiles != nil {
			// The closure always runs on the tile owning ch.Dst (credit
			// returns fire while that router's input port frees a slot);
			// the credited output port belongs to the tile owning ch.Src.
			gen, rcv := n.tiles[n.tileOf[ch.Dst]], n.tileOf[ch.Src]
			n.Routers[ch.Dst].SetCreditReturn(back, func(vc int, _ sim.Time) {
				if rcv == gen.id {
					gen.enqueueCredit(upstream, vc, rev.Level())
				} else {
					gen.outbox[rcv] = append(gen.outbox[rcv],
						tileMsg{due: gen.cycle + n.lvlCycles[rev.Level()], node: -1, out: upstream, vc: vc})
				}
			})
			continue
		}
		n.Routers[ch.Dst].SetCreditReturn(back, func(vc int, _ sim.Time) {
			n.enqueueCredit(upstream, vc, rev.Level())
		})
	}

	n.Lat = stats.NewLatency(cfg.RouterPeriod)
	// Meter links in Links() order — the same order BeginMeasurement uses —
	// so the meter's float summation order never depends on which
	// constructor built it (checkpoint restore relies on the alignment).
	n.Meter = power.NewMeter(table, n.Links(), 0)

	nodes := topo.Nodes()
	words := (nodes + 63) / 64
	n.activeMask = make([]uint64, words)
	n.injMask = make([]uint64, words)
	n.sleepMask = make([]uint64, words)
	n.wakeAt = make([]sim.Time, nodes)
	n.wheel = make([]uint64, wheelSpan*words)
	n.skips.ActiveHist = make([]int64, nodes+1)

	if cfg.Audit.Enabled {
		n.aud = audit.New(cfg.Audit, audit.Wiring{
			Topo:        topo,
			Routers:     n.Routers,
			LinkAt:      func(node, port int) *link.DVSLink { return n.linkAt[node][port] },
			InFlight:    func() int64 { return n.InFlight },
			WalkTransit: n.walkTransit,
		})
	}
	return n, nil
}

// Auditor reports the runtime invariant checker, or nil when disabled.
func (n *Network) Auditor() *audit.Checker { return n.aud }

// walkTransit shows the audit everything in flight outside router state:
// ring-buffered arrivals and credits, and partially injected packets at
// sources. Queued whole packets have no flits yet and are tracked by the
// audit's own ledger. Tiled networks walk the per-tile rings and outboxes
// instead of the global ones (audit scans run at barriers, where outboxes
// have just drained, but the walk covers them anyway so the conservation
// argument has no gaps).
func (n *Network) walkTransit(v audit.TransitVisitor) {
	if n.tiles != nil {
		for _, t := range n.tiles {
			t.walkTransit(v)
		}
	} else {
		walkRing(n.ring, v)
	}
	for node, inj := range n.injectors {
		for _, f := range inj.current {
			v.SourceFlit(node, f)
		}
	}
}

// walkRing shows the audit every message buffered in one delay ring.
func walkRing(ring []ringBucket, v audit.TransitVisitor) {
	for i := range ring {
		b := &ring[i]
		for _, a := range b.arrivals {
			v.Flit(a.in, a.flit)
		}
		for _, cm := range b.credits {
			v.Credit(cm.out, cm.vc)
		}
	}
}

// newPolicy builds one per-port policy instance.
func (n *Network) newPolicy() core.Policy {
	switch n.Cfg.Policy {
	case PolicyHistory:
		p, err := core.NewHistoryDVS(n.Cfg.DVS)
		if err != nil {
			panic(err)
		}
		return p
	case PolicyLinkUtilOnly:
		return &core.LinkUtilOnly{P: n.Cfg.DVS}
	case PolicyAdaptiveThresholds:
		p, err := core.NewAdaptiveThresholds(n.Cfg.DVS)
		if err != nil {
			panic(err)
		}
		return p
	default:
		return core.NoDVS{}
	}
}

// Links returns all DVS links (for instrumentation).
func (n *Network) Links() []*link.DVSLink {
	var out []*link.DVSLink
	for _, row := range n.linkAt {
		for _, l := range row {
			if l != nil {
				out = append(out, l)
			}
		}
	}
	return out
}

// LinkAt returns the channel leaving node via (dim, dir), or nil.
func (n *Network) LinkAt(node, dim int, dir topology.Direction) *link.DVSLink {
	return n.linkAt[node][n.Topo.PortFor(dim, dir)]
}

// Inject enqueues one packet at a source node. It is the traffic.Injector
// for this network.
func (n *Network) Inject(src, dst int, now sim.Time, task int64) {
	if n.tiles != nil {
		panic("network: Inject on a tiled network — attach a recorded trace via Launch")
	}
	if src == dst {
		return
	}
	n.nextPkt++
	p := n.pool.NewPacket(n.nextPkt, src, dst, now, task)
	n.injectors[src].push(p)
	n.markInject(src)
	n.injected++
	n.InFlight++
	if n.aud != nil {
		n.aud.OnInject(p, n.cycle)
	}
	n.Trace.Log(trace.Event{At: now, Kind: trace.PacketInjected, ID: p.ID, A: src, B: dst})
}

// Cycle reports the number of router cycles executed.
func (n *Network) Cycle() int64 { return n.cycle }

// Now reports the current simulation time.
func (n *Network) Now() sim.Time { return n.Sched.Now() }

// Step advances the platform one router cycle: deliver pending events,
// inject, then one pass over the active routers in ascending node order —
// each ticks, transmits onto its links, ejects, and retires from the active
// list if that left it idle — and finally the DVS policy when a history
// window closes. Routers not on the active list are skipped; skipping them
// is exact, because an idle router's Tick, transmit and eject are provable
// no-ops (see Router.Busy) — and so are those of a sleeping one, busy but
// with no buffered flits, before its wake instant (see sleepUntil; under
// Audit every such skip is checked).
//
// Fusing the phases per router is exact too. Inside a cycle routers affect
// each other only through ring buckets due at cycle+1 or later and through
// future scheduler events, never through state another router's Tick,
// transmit or eject reads this cycle; arrivals and credits sit in separate
// per-bucket lists, each still appended in ascending node order; and
// ejections — which feed the order-sensitive latency accumulator and the
// packet pool — still happen in ascending node order. What does change is
// what an OnDeliver observer could see beyond its packet: higher-numbered
// routers have not ticked yet, so the network is not settled mid-cycle (it
// never was under Tiles).
func (n *Network) Step() {
	if n.tiles != nil {
		panic("network: Step on a tiled network — use Run")
	}
	now := sim.Time(n.cycle) * n.Cfg.RouterPeriod
	n.Sched.RunUntil(now)
	n.drainRing(now)
	n.injectFlits(now)
	n.wakeDue(now)
	ticked, slept := 0, 0
	for w, word := range n.activeMask {
		base := w << 6
		if s := n.sleepMask[w]; s != 0 {
			slept += bits.OnesCount64(s)
			if n.aud != nil {
				n.auditSleepers(base, s, now)
			}
		}
		for word != 0 {
			node := base + bits.TrailingZeros64(word)
			word &= word - 1
			r := n.Routers[node]
			r.Tick(now, n.Cfg.RouterPeriod)
			ticked++
			if r.LinkTxQueued() > 0 {
				n.transmitNode(r, node, now)
			}
			n.ejectNode(r, now)
			if r.BufferedFlits() != 0 || n.noskip {
				continue
			}
			if r.Busy() {
				// Only queued tx left: nothing to do until a front clears
				// the output pipeline and its link frees.
				n.sleep(node, r, now)
			} else {
				// Idle: the bit re-arms on the next flit arrival (ring
				// delivery or injection).
				n.activeMask[w] &^= 1 << (node & 63)
				n.activeCount--
			}
		}
	}
	n.skips.CyclesExecuted++
	n.skips.RouterTicks += int64(ticked)
	n.skips.RouterTicksElided += int64(len(n.Routers) - ticked)
	n.skips.RouterTicksSlept += int64(slept)
	n.skips.ActiveHist[ticked]++
	n.cycle++
	if !n.dvsHold && n.cycle%int64(n.Cfg.DVS.H) == 0 {
		n.runPolicies(now)
	}
	if n.Probe != nil && n.ProbeEvery > 0 && n.cycle%n.ProbeEvery == 0 {
		n.Probe(now)
	}
	if n.aud != nil {
		n.aud.EndCycle(n.cycle, now)
	}
}

// Run advances the given number of router cycles. When the platform is
// quiescent — no active routers, no pending injector work, no ring-buffered
// messages — it fast-forwards the cycle counter straight to the next
// interesting edge instead of stepping empty cycles. The jump is exact, not
// approximate: every cycle that could observe or change state (the first
// cycle delivering a scheduler event, each policy-window close, each probe
// tick, each audit scan) still executes with the same cycle number and the
// same simulation instant as in the cycle-by-cycle baseline.
func (n *Network) Run(cycles int64) {
	if n.tiles != nil {
		n.runTiled(cycles)
		return
	}
	target := n.cycle + cycles
	for n.cycle < target {
		if !n.noskip && n.activeCount == 0 && n.injCount == 0 && n.ringCount == 0 {
			if c := n.nextInterestingCycle(target); c > n.cycle {
				n.fastForward(c)
				continue
			}
		}
		n.Step()
	}
}

// boundaryFrom reports the smallest cycle c >= from whose Step closes a
// period-`every` window, i.e. (c+1) % every == 0: Step increments the cycle
// counter before testing it against the window length.
func boundaryFrom(from, every int64) int64 {
	return (from+every)/every*every - 1
}

// nextInterestingCycle reports the first cycle at or after the current one
// that must execute while the network is quiescent: the cycle whose
// RunUntil delivers the earliest pending scheduler event (traffic
// injections and DVS transition completions live there), the next DVS
// policy-window close, the next probe tick, and the next audit scan.
// Everything in between is provably empty: no router state, link window,
// energy ledger or occupancy integral changes on those cycles (the lazily
// accrued quantities integrate over the jump exactly).
// The result is clamped to target, the end of the current Run.
func (n *Network) nextInterestingCycle(target int64) int64 {
	next := target
	if n.Sched.Pending() > 0 {
		if c := n.dueCycle(n.Sched.PeekTime()); c < next {
			next = c
		}
	}
	if n.Cfg.Policy != PolicyNone && !n.dvsHold {
		// With PolicyNone every controller is core.NoDVS and runPolicies is
		// a no-op, so window closes need not execute; the same holds while
		// the policies are frozen by a DVS hold.
		if c := boundaryFrom(n.cycle, int64(n.Cfg.DVS.H)); c < next {
			next = c
		}
	}
	if n.Probe != nil && n.ProbeEvery > 0 {
		if c := boundaryFrom(n.cycle, n.ProbeEvery); c < next {
			next = c
		}
	}
	if n.aud != nil {
		if c := boundaryFrom(n.cycle, n.aud.ScanEvery()); c < next {
			next = c
		}
	}
	if next < n.cycle {
		next = n.cycle
	}
	return next
}

// fastForward jumps the cycle counter to c and advances the scheduler clock
// to the last skipped cycle edge, exactly where cycle-by-cycle stepping
// would have left it. No scheduler event can fire in the jumped span: c is
// bounded by the due cycle of the earliest pending event.
func (n *Network) fastForward(c int64) {
	skipped := c - n.cycle
	n.skips.CyclesFastForwarded += skipped
	n.skips.FastForwards++
	n.skips.RouterTicksElided += skipped * int64(len(n.Routers))
	n.cycle = c
	if ran := n.Sched.RunUntil(sim.Time(c-1) * n.Cfg.RouterPeriod); ran != 0 {
		panic(fmt.Sprintf("network: fast-forward to cycle %d ran %d events — jump bound broken", c, ran))
	}
}

// dueCycle converts an absolute due instant to the router cycle whose Step
// will deliver it: the first cycle edge at or after the instant.
func (n *Network) dueCycle(at sim.Time) int64 {
	p := n.Cfg.RouterPeriod
	return int64((at + p - 1) / p)
}

// enqueueArrival buffers a flit sent on this cycle's edge over a link at
// level lvl, landing at the channel's far end lvlCycles[lvl] cycles later,
// where drainRing re-arms the destination router. The ring is longer than
// every level's delay (ringLen), so the bucket is never this cycle's.
func (n *Network) enqueueArrival(end *chanEnd, f *flow.Flit, lvl int) {
	b := &n.ring[(n.cycle+n.lvlCycles[lvl])&n.ringMask]
	b.arrivals = append(b.arrivals, arrivalMsg{in: end.in, flit: f, node: end.node})
	n.ringCount++
}

// enqueueCredit buffers a credit returned on this cycle's edge over a
// reverse link at level lvl. Credits need no active-list re-arm: a credit
// only unblocks a router that already holds flits waiting to traverse, and
// such a router is busy by definition.
func (n *Network) enqueueCredit(out *router.OutputPort, vc int, lvl int) {
	b := &n.ring[(n.cycle+n.lvlCycles[lvl])&n.ringMask]
	b.credits = append(b.credits, creditMsg{out: out, vc: vc})
	n.ringCount++
}

// drainRing delivers the messages due this cycle and re-arms the routers
// that received flits.
func (n *Network) drainRing(now sim.Time) {
	b := &n.ring[n.cycle&n.ringMask]
	n.ringCount -= len(b.arrivals) + len(b.credits)
	for i, a := range b.arrivals {
		n.markActive(a.node)
		a.in.Arrive(a.flit, now)
		b.arrivals[i] = arrivalMsg{}
	}
	b.arrivals = b.arrivals[:0]
	for i, c := range b.credits {
		c.out.ReturnCredit(c.vc, now)
		b.credits[i] = creditMsg{}
	}
	b.credits = b.credits[:0]
}

// injectFlits moves source-queue flits into local input buffers: one flit
// per node per cycle, packets contiguous per VC. Only nodes on the
// injector mask are visited; a node leaves the mask when both its queue
// and its in-progress flit train are empty.
func (n *Network) injectFlits(now sim.Time) {
	for w, word := range n.injMask {
		base := w << 6
		for word != 0 {
			node := base + bits.TrailingZeros64(word)
			word &= word - 1
			inj := n.injectors[node]
			n.injectOne(node, inj, now)
			if !n.noskip && len(inj.current) == 0 && inj.qLen == 0 {
				n.injMask[w] &^= 1 << (node & 63)
				n.injCount--
			}
		}
	}
}

// injectOne advances one node's injector by at most one flit.
func (n *Network) injectOne(node int, inj *injector, now sim.Time) {
	in := n.Routers[node].Inputs[topology.LocalPort]
	if len(inj.current) == 0 {
		if inj.qLen == 0 {
			return
		}
		// Pick the VC with the most free space for the next packet.
		best, bestFree := -1, 0
		for vc := 0; vc < n.Cfg.Router.VCs; vc++ {
			if f := in.Free(vc); f > bestFree {
				best, bestFree = vc, f
			}
		}
		if best < 0 || bestFree < 1 {
			return
		}
		p := inj.pop()
		p.Injected = now
		inj.current = n.pool.Flits(p)
		inj.vc = best
		if n.aud != nil {
			n.aud.OnSourceDequeue(p, n.cycle)
		}
	}
	if in.Free(inj.vc) < 1 {
		return
	}
	f := inj.current[0]
	inj.current = inj.current[1:]
	f.VC = inj.vc
	n.markActive(node)
	in.Arrive(f, now)
}

// transmitNode drains one router's output pipelines onto functional, idle
// links, scheduling each flit's arrival at the channel's far end after
// serialization. The router's tx port mask names exactly the ports with
// queued entries, in ascending port order, so empty ports cost nothing.
func (n *Network) transmitNode(r *router.Router, node int, now sim.Time) {
	ends := n.chanEnds[node*n.Cfg.Router.Ports:]
	for mask := r.TxPortMask() &^ 1; mask != 0; mask &= mask - 1 {
		port := bits.TrailingZeros32(mask)
		out := r.Outputs[port]
		l := out.Link
		if l == nil {
			continue
		}
		front := out.TxFront()
		if front.ReadyAt() > now || !l.CanSend(now) {
			continue
		}
		out.PopTx()
		f := front.Flit()
		if n.aud != nil {
			n.aud.OnLinkSend(node, port, l, f, now, n.cycle)
		}
		l.Send(now)
		end := &ends[port]
		if end.in == nil {
			panic("network: flit routed off the mesh edge")
		}
		advanceDateline(f, end)
		n.enqueueArrival(end, f, l.Level())
	}
}

// advanceDateline updates a packet's dateline state as its head flit
// crosses a channel.
func advanceDateline(f *flow.Flit, end *chanEnd) {
	if f.Kind != flow.Head {
		return
	}
	p := f.Packet
	st := routing.State{LastDim: p.LastDim, Wrapped: p.Wrapped}.Advance(end.dim, end.wrap)
	p.LastDim, p.Wrapped = st.LastDim, st.Wrapped
}

// ejectNode drains one router's local output pipeline: every ready flit
// leaves immediately (the paper assumes immediate ejection), and tails
// complete packets.
func (n *Network) ejectNode(r *router.Router, now sim.Time) {
	if r.LocalTxQueued() == 0 {
		return
	}
	out := r.Outputs[topology.LocalPort]
	for out.QueuedTx() > 0 && out.TxFront().ReadyAt() <= now {
		e := out.PopTx()
		f := e.Flit()
		if n.aud != nil {
			n.aud.OnEject(f, r.ID, n.cycle)
		}
		if f.Kind != flow.Tail {
			continue
		}
		p := f.Packet
		p.Delivered = now
		n.InFlight--
		n.Trace.Log(trace.Event{At: now, Kind: trace.PacketDelivered,
			ID: p.ID, A: p.Src, B: p.Dst, C: int64(p.Latency())})
		if p.Created >= n.measStart {
			n.Lat.Add(p.Latency())
			n.delivered++
		}
		if n.aud != nil {
			n.aud.OnDeliver(p, n.cycle)
		}
		if n.OnDeliver != nil {
			n.OnDeliver(p)
		} else {
			// The last reference to the packet and its flits just died (the
			// audit ledgers key by ID and dropped theirs in OnDeliver, and
			// trace/latency records copy values), so the block can back a
			// future injection.
			n.pool.Recycle(p)
		}
	}
}

// SetDVSHold freezes (true) or releases (false) the DVS policies. While
// held, no history window closes and no link transition can start, so the
// run is independent of the configured policy and thresholds. Releasing
// the hold drains every policy-visible window (link utilization, output
// occupancy integrals, input buffer-age windows) so the first live window
// covers only post-release activity, deterministically — an uninterrupted
// held warmup and a checkpoint-forked one release into identical state.
func (n *Network) SetDVSHold(hold bool) {
	if n.dvsHold == hold {
		return
	}
	n.dvsHold = hold
	if hold {
		return
	}
	now := n.Now()
	for _, c := range n.ctls {
		c.link.TakeUtilization(now)
		c.out.TakeOccupancyIntegral(now)
	}
	for _, r := range n.Routers {
		for _, in := range r.Inputs {
			in.TakeAgeWindow()
		}
	}
}

// DVSHold reports whether the DVS policies are frozen.
func (n *Network) DVSHold() bool { return n.dvsHold }

// runPolicies closes one history window on every controlled port.
func (n *Network) runPolicies(now sim.Time) {
	window := sim.Duration(n.Cfg.DVS.H) * n.Cfg.RouterPeriod
	for _, c := range n.ctls {
		if _, fixed := c.policy.(core.NoDVS); fixed {
			// The baseline never moves; leave the utilization and occupancy
			// windows to instrumentation probes.
			continue
		}
		n.policiesTouched = true
		busy, dead := c.link.TakeUtilization(now)
		lu := core.LinkUtilization(busy, window-dead)
		bu := core.BufferUtilization(c.out.TakeOccupancyIntegral(now), c.out.TotalSlots(), window)
		switch c.policy.Decide(core.Measures{LinkUtil: lu, BufUtil: bu}) {
		case core.Raise:
			n.Trace.Log(trace.Event{At: now, Kind: trace.PolicyDecision, A: c.node, B: c.port, C: 1})
			if c.link.RequestStep(now, true) {
				n.Trace.Log(trace.Event{At: now, Kind: trace.LinkTransition,
					A: c.node, B: c.port, C: int64(c.link.TargetLevel())})
			}
		case core.Lower:
			n.Trace.Log(trace.Event{At: now, Kind: trace.PolicyDecision, A: c.node, B: c.port, C: -1})
			if c.link.RequestStep(now, false) {
				n.Trace.Log(trace.Event{At: now, Kind: trace.LinkTransition,
					A: c.node, B: c.port, C: int64(c.link.TargetLevel())})
			}
		}
	}
}

// BeginMeasurement resets latency/power/throughput accounting at the
// current instant; packets created earlier are excluded from latency and
// throughput statistics.
func (n *Network) BeginMeasurement() {
	now := n.Now()
	n.measStart = now
	n.measCycle = n.cycle
	n.Lat = stats.NewLatency(n.Cfg.RouterPeriod)
	n.Meter = power.NewMeter(n.Table, n.Links(), now)
	n.delivered = 0
	n.injected = 0
}

// Results summarizes a measurement interval.
type Results struct {
	Cycles         int64
	InjectedPkts   int64
	DeliveredPkts  int64
	MeanLatency    float64 // router cycles
	P50Latency     float64 // median latency, router cycles
	P99Latency     float64 // tail latency, router cycles
	ThroughputPkts float64 // packets per cycle, network-wide
	AvgPowerW      float64
	NormalizedPwr  float64
	SavingsX       float64
}

// Snapshot reports results accumulated since BeginMeasurement. Measured
// cycles are counted on the cycle counter: the scheduler clock stands at
// the last executed cycle's edge, one cycle short from cycle 0.
func (n *Network) Snapshot() Results {
	now := n.Now()
	cycles := n.cycle - n.measCycle
	var thr float64
	if cycles > 0 {
		thr = float64(n.delivered) / float64(cycles)
	}
	return Results{
		Cycles:         cycles,
		InjectedPkts:   n.injected,
		DeliveredPkts:  n.delivered,
		MeanLatency:    n.Lat.MeanCycles(),
		P50Latency:     n.Lat.Quantile(0.5),
		P99Latency:     n.Lat.Quantile(0.99),
		ThroughputPkts: thr,
		AvgPowerW:      n.Meter.AvgPowerW(now),
		NormalizedPwr:  n.Meter.Normalized(now),
		SavingsX:       n.Meter.Savings(now),
	}
}

// Launch attaches a traffic model from now until horizon. A recorded trace
// (*traffic.Trace) attaches through its resumable replay handle, which is
// what makes the network checkpointable; live models drive the scheduler
// directly through opaque event chains and cannot be captured.
func (n *Network) Launch(m traffic.Model, horizon sim.Time) {
	n.model, n.horizon = m, horizon
	if tr, ok := m.(*traffic.Trace); ok {
		if n.tiles != nil {
			// Each tile replays its own source-filtered projection of the
			// trace on its own scheduler; order and timestamps per source
			// are exactly the sequential replay's.
			for _, t := range n.tiles {
				t.replay = tr.LaunchReplayFiltered(&t.sched, horizon, t.inject, t.owns)
			}
			return
		}
		n.replay = tr.LaunchReplay(n.Sched, horizon, n.Inject)
		return
	}
	if n.tiles != nil {
		panic("network: tiled simulation requires a recorded trace workload (traffic.Capture)")
	}
	m.Launch(n.Sched, horizon, n.Inject)
}
