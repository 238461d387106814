// Package audit is the platform's runtime invariant checker. Wired into
// the network's event loop, it continuously verifies the flit-level
// mechanics the paper's results rest on: conservation of flits and
// credits, legality of the router VC state machines, legality of the DVS
// link protocol (no flit during a frequency transition, voltage and
// frequency always at a table level, energy accounting monotone), and a
// deadlock/livelock watchdog that dumps a readable wait-for snapshot when
// the network stops making progress.
//
// The checker is pluggable: the network threads a nil-checked pointer
// through its hot paths, so a disabled audit costs one pointer compare per
// hook site. Enabled, per-event hooks run O(1) bookkeeping and the
// heavyweight structural scans run every Options.ScanEvery cycles.
package audit

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/flow"
	"repro/internal/link"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Defaults for Options fields left zero.
const (
	DefaultScanEvery   = 64     // structural scan period, router cycles
	DefaultStallCycles = 25_000 // watchdog threshold, router cycles
)

// Options configure a Checker.
type Options struct {
	// Enabled turns the whole subsystem on. When false the network keeps a
	// nil checker and every hook site reduces to one pointer compare.
	Enabled bool
	// ScanEvery is the period, in router cycles, of the structural scans
	// (conservation, state-machine and DVS-legality sweeps). Zero means
	// DefaultScanEvery.
	ScanEvery int64
	// StallCycles is the deadlock-watchdog threshold: a violation fires
	// when no flit anywhere moves for this many cycles while packets are
	// in flight. Zero means DefaultStallCycles.
	StallCycles int64
	// MaxPacketAge, when positive, flags any packet still in the network
	// this many cycles after leaving its source queue (livelock check).
	// Zero disables it: under saturation a packet may legally spend an
	// unbounded time queued and a long time buffered.
	MaxPacketAge int64
	// OnViolation observes every violation. Nil panics on the first one,
	// which is the right default for simulations: a broken invariant means
	// every number produced afterwards is suspect.
	OnViolation func(Violation)
}

func (o Options) withDefaults() Options {
	if o.ScanEvery <= 0 {
		o.ScanEvery = DefaultScanEvery
	}
	if o.StallCycles <= 0 {
		o.StallCycles = DefaultStallCycles
	}
	return o
}

// Violation is one detected invariant breach. Node, Port and VC are -1
// when the rule is not tied to that coordinate.
type Violation struct {
	Rule  string // e.g. "credit-conservation", "dvs-legality", "deadlock"
	Cycle int64
	Node  int
	Port  int
	VC    int
	Msg   string
}

func (v Violation) String() string {
	var loc strings.Builder
	if v.Node >= 0 {
		fmt.Fprintf(&loc, " router %d", v.Node)
	}
	if v.Port >= 0 {
		fmt.Fprintf(&loc, " port %d", v.Port)
	}
	if v.VC >= 0 {
		fmt.Fprintf(&loc, " vc %d", v.VC)
	}
	return fmt.Sprintf("audit[%s] cycle %d%s: %s", v.Rule, v.Cycle, loc.String(), v.Msg)
}

// Stats summarizes a checker's work.
type Stats struct {
	Scans      int64 // structural scans executed
	Checks     int64 // individual invariant evaluations
	Violations int64
}

// TransitVisitor receives everything in flight outside router state during
// a conservation scan: messages in the network's delivery ring (and its
// scheduler-fallback list) plus partially injected packets at sources.
type TransitVisitor struct {
	// Flit observes a flit in transit toward a downstream input port.
	Flit func(in *router.InputPort, f *flow.Flit)
	// Credit observes a credit in transit toward an upstream output port.
	Credit func(out *router.OutputPort, vc int)
	// SourceFlit observes a flit of a partially injected packet still held
	// by the source injector at node src.
	SourceFlit func(src int, f *flow.Flit)
}

// Wiring connects a Checker to the platform it audits. The network layer
// fills it in; the checker only reads through it.
type Wiring struct {
	Topo    *topology.Cube
	Routers []*router.Router
	// LinkAt reports the DVS link leaving node through port, or nil for
	// the local port and unconnected mesh-edge ports.
	LinkAt func(node, port int) *link.DVSLink
	// InFlight reports packets injected but not yet delivered.
	InFlight func() int64
	// WalkTransit enumerates in-flight messages for conservation scans.
	WalkTransit func(TransitVisitor)
}

// pktRecord is the lifetime ledger entry of one in-flight packet.
type pktRecord struct {
	queued       bool // still whole in its source queue, no flits exist yet
	ejected      int8 // flits ejected at the destination so far
	dequeueCycle int64
}

// channel is one audited inter-router connection: the upstream output port
// and the downstream input port its credits account for.
type channel struct {
	node, port int // upstream coordinates (for diagnostics)
	out        *router.OutputPort
	in         *router.InputPort
	link       *link.DVSLink
}

// inKey / outKey key the per-scan transit tallies.
type inKey struct {
	in *router.InputPort
	vc int
}
type outKey struct {
	out *router.OutputPort
	vc  int
}

// Checker is the runtime invariant audit. All methods run on the
// simulation goroutine; a Checker is not safe for concurrent use.
type Checker struct {
	opts Options
	w    Wiring

	channels []channel
	edges    []channel // unconnected mesh-edge ports (link == nil), must stay pristine

	// ledger holds every in-flight packet; active the subset whose flits
	// exist in the network (dequeued from the source queue). Scans walk
	// only active so congestion-era source queues don't inflate scan cost.
	ledger map[int64]*pktRecord
	active map[int64]*pktRecord

	// lastEnergy is the per-link energy reading of the previous scan, for
	// the monotonicity check.
	lastEnergy []float64
	links      []*link.DVSLink

	// Watchdog progress state.
	lastProgress      int64
	lastProgressCycle int64

	stats Stats

	// Scan scratch, reused to bound per-scan allocation.
	flitCount    map[int64]int
	transitFlit  map[inKey]int
	transitCred  map[outKey]int
	perVCTx      []int
	watchdogOnce bool // a stall was already reported for the current plateau
}

// New builds a checker over a fully constructed platform and arms the
// routers' in-pipeline assertions.
func New(o Options, w Wiring) *Checker {
	c := &Checker{
		opts:        o.withDefaults(),
		w:           w,
		ledger:      make(map[int64]*pktRecord),
		active:      make(map[int64]*pktRecord),
		flitCount:   make(map[int64]int),
		transitFlit: make(map[inKey]int),
		transitCred: make(map[outKey]int),
	}
	for node, r := range w.Routers {
		r.Asserts = true
		c.perVCTx = make([]int, r.Cfg.VCs)
		for port := 1; port < r.Cfg.Ports; port++ {
			l := w.LinkAt(node, port)
			if l == nil {
				c.edges = append(c.edges, channel{node: node, port: port, out: r.Outputs[port]})
				continue
			}
			dim, dir := w.Topo.DimDir(port)
			dst, ok := w.Topo.Neighbor(node, dim, dir)
			if !ok {
				panic(fmt.Sprintf("audit: link on node %d port %d leads off the topology", node, port))
			}
			in := w.Routers[dst].Inputs[w.Topo.PortFor(dim, 1-dir)]
			c.channels = append(c.channels, channel{node: node, port: port, out: r.Outputs[port], in: in, link: l})
			c.links = append(c.links, l)
		}
	}
	c.lastEnergy = make([]float64, len(c.links))
	for i := range c.lastEnergy {
		c.lastEnergy[i] = -1 // unseen
	}
	return c
}

// Stats reports the checker's counters.
func (c *Checker) Stats() Stats { return c.stats }

func (c *Checker) report(v Violation) {
	c.stats.Violations++
	if c.opts.OnViolation != nil {
		c.opts.OnViolation(v)
		return
	}
	panic(v.String())
}

func (c *Checker) check(ok bool, v func() Violation) {
	c.stats.Checks++
	if !ok {
		c.report(v())
	}
}

// OnInject records a packet accepted into a source queue.
func (c *Checker) OnInject(p *flow.Packet, cycle int64) {
	nodes := c.w.Topo.Nodes()
	c.check(p.Src >= 0 && p.Src < nodes && p.Dst >= 0 && p.Dst < nodes && p.Src != p.Dst, func() Violation {
		return Violation{Rule: "flit-conservation", Cycle: cycle, Node: p.Src, Port: -1, VC: -1,
			Msg: fmt.Sprintf("packet %d injected with illegal endpoints src=%d dst=%d", p.ID, p.Src, p.Dst)}
	})
	_, dup := c.ledger[p.ID]
	c.check(!dup, func() Violation {
		return Violation{Rule: "flit-conservation", Cycle: cycle, Node: p.Src, Port: -1, VC: -1,
			Msg: fmt.Sprintf("packet id %d injected twice", p.ID)}
	})
	c.ledger[p.ID] = &pktRecord{queued: true}
}

// OnSourceDequeue records a packet leaving its source queue: its flit
// train now exists and enters conservation scans.
func (c *Checker) OnSourceDequeue(p *flow.Packet, cycle int64) {
	rec := c.ledger[p.ID]
	c.check(rec != nil && rec.queued, func() Violation {
		return Violation{Rule: "flit-conservation", Cycle: cycle, Node: p.Src, Port: -1, VC: -1,
			Msg: fmt.Sprintf("packet %d dequeued for injection but not ledgered as queued", p.ID)}
	})
	if rec == nil {
		return
	}
	rec.queued = false
	rec.dequeueCycle = cycle
	c.active[p.ID] = rec
}

// OnEject records one flit leaving the network through node's local port.
func (c *Checker) OnEject(f *flow.Flit, node int, cycle int64) {
	rec := c.active[f.Packet.ID]
	c.check(rec != nil, func() Violation {
		return Violation{Rule: "flit-conservation", Cycle: cycle, Node: node, Port: topology.LocalPort, VC: f.VC,
			Msg: fmt.Sprintf("ejected flit %d of packet %d which is not in flight", f.Seq, f.Packet.ID)}
	})
	if rec == nil {
		return
	}
	c.check(f.Packet.Dst == node, func() Violation {
		return Violation{Rule: "flit-conservation", Cycle: cycle, Node: node, Port: topology.LocalPort, VC: f.VC,
			Msg: fmt.Sprintf("packet %d ejected at node %d but addressed to %d", f.Packet.ID, node, f.Packet.Dst)}
	})
	c.check(int(rec.ejected) == f.Seq, func() Violation {
		return Violation{Rule: "flit-conservation", Cycle: cycle, Node: node, Port: topology.LocalPort, VC: f.VC,
			Msg: fmt.Sprintf("packet %d ejected flit %d after %d earlier flits — out of order or interleaved", f.Packet.ID, f.Seq, rec.ejected)}
	})
	rec.ejected++
}

// OnDeliver records a completed packet (its tail just ejected).
func (c *Checker) OnDeliver(p *flow.Packet, cycle int64) {
	rec := c.active[p.ID]
	c.check(rec != nil && int(rec.ejected) == flow.FlitsPerPacket, func() Violation {
		got := int8(-1)
		if rec != nil {
			got = rec.ejected
		}
		return Violation{Rule: "flit-conservation", Cycle: cycle, Node: p.Dst, Port: -1, VC: -1,
			Msg: fmt.Sprintf("packet %d delivered with %d/%d flits ejected", p.ID, got, flow.FlitsPerPacket)}
	})
	c.check(p.Delivered >= p.Created, func() Violation {
		return Violation{Rule: "flit-conservation", Cycle: cycle, Node: p.Dst, Port: -1, VC: -1,
			Msg: fmt.Sprintf("packet %d delivered at %v before its creation at %v", p.ID, p.Delivered, p.Created)}
	})
	delete(c.active, p.ID)
	delete(c.ledger, p.ID)
}

// OnLinkSend checks a flit about to enter the channel leaving
// (node, port): the DVS protocol forbids transmission while the receiver
// re-locks to a new frequency, and the serializer must be clear.
func (c *Checker) OnLinkSend(node, port int, l *link.DVSLink, f *flow.Flit, now sim.Time, cycle int64) {
	c.check(l.State() != link.FreqLocking, func() Violation {
		return Violation{Rule: "dvs-legality", Cycle: cycle, Node: node, Port: port, VC: f.VC,
			Msg: fmt.Sprintf("flit %d of packet %d sent while the link is frequency-locking (dead)", f.Seq, f.Packet.ID)}
	})
	c.check(l.CanSend(now), func() Violation {
		return Violation{Rule: "dvs-legality", Cycle: cycle, Node: node, Port: port, VC: f.VC,
			Msg: fmt.Sprintf("flit %d of packet %d sent at %v while the previous flit still occupies the serializer", f.Seq, f.Packet.ID, now)}
	})
}

// OnSleepSkip checks a router the network is skipping this cycle as asleep
// (busy, but only waiting out its output pipeline or a slow link). The
// skip is exact only if a visit would have been a no-op: no buffered flit
// for the allocators to move, no queued link port whose front has cleared
// the pipeline while its link can send, no ready flit to eject. A wake
// instant computed too late breaks one of the three.
func (c *Checker) OnSleepSkip(node int, now sim.Time, cycle int64) {
	r := c.w.Routers[node]
	c.check(r.BufferedFlits() == 0, func() Violation {
		return Violation{Rule: "late-wake", Cycle: cycle, Node: node, Port: -1, VC: -1,
			Msg: fmt.Sprintf("skipped as asleep with %d buffered flits", r.BufferedFlits())}
	})
	for mask := r.TxPortMask(); mask != 0; mask &= mask - 1 {
		port := bits.TrailingZeros32(mask)
		out := r.Outputs[port]
		blocked := out.TxFront().ReadyAt() > now || (out.Link != nil && !out.Link.CanSend(now))
		c.check(blocked, func() Violation {
			return Violation{Rule: "late-wake", Cycle: cycle, Node: node, Port: port, VC: -1,
				Msg: fmt.Sprintf("skipped as asleep at %v while its front flit, ready since %v, could leave", now, out.TxFront().ReadyAt())}
		})
	}
}

// ScanEvery reports the structural scan period in router cycles. The
// network's quiescent fast-forward uses it to land on every scan cycle
// exactly, so auditing sees the same cycle numbers either way.
func (c *Checker) ScanEvery() int64 { return c.opts.ScanEvery }

// EndCycle runs once per router cycle after the network finishes its step;
// the structural scans run every ScanEvery cycles.
func (c *Checker) EndCycle(cycle int64, now sim.Time) {
	if cycle%c.opts.ScanEvery != 0 {
		return
	}
	c.stats.Scans++
	c.scanConservation(cycle)
	c.scanRouters(cycle)
	c.scanLinks(cycle, now)
	c.watchdog(cycle)
}
