package network

import (
	"fmt"
	"sort"

	"repro/internal/audit"
	"repro/internal/flow"
	"repro/internal/link"
	"repro/internal/power"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// Network-level checkpointing: CaptureCheckpoint freezes the complete
// simulation state between steps; RestoreCheckpoint rebuilds it into a
// freshly constructed Network so the forked run is byte-identical to an
// uninterrupted one. The serialization wrapper (versioning, codec, config
// compatibility) lives in internal/checkpoint; this file owns the walk
// over live state.
//
// Capture refuses configurations it cannot make exact: attached observers
// (Probe, OnDeliver, event trace), live traffic models (only recorded
// traces carry resumable progress), and networks whose DVS policies have
// already consumed history windows (controller-internal state is not
// captured; experiment warmups run under SetDVSHold so it never exists).
// As a final gate, it cross-checks every pending scheduler event against
// the subsystems that claim one — a snapshot that cannot account for each
// queued event byte-for-byte is refused rather than silently wrong.

// PacketState is one in-flight packet. FlitVC holds the VC field of each
// live flit (zero for flits that no longer exist anywhere); Queued marks a
// packet still whole in its source queue, whose flit train has not been
// materialized yet.
type PacketState struct {
	ID       int64
	Src      int32
	Dst      int32
	Created  sim.Time
	Injected sim.Time
	Task     int64
	LastDim  int32
	Wrapped  bool
	Queued   bool
	FlitVC   [flow.FlitsPerPacket]int32
}

// InjectorState is one node's source queue: whole queued packets
// (front-to-back, as packet-table indices) and the partially injected
// packet's progress.
type InjectorState struct {
	Queue      []int32
	CurrentPkt int32 // packet-table index, -1 when no packet is mid-injection
	CurrentOff int32 // flits already injected from the current packet
	VC         int32
}

// RingArrival is one ring-buffered flit delivery. Slot is the ring bucket
// index; the due cycle is recoverable from it because every live due cycle
// lies within one ring length of the captured cycle.
type RingArrival struct {
	Slot int32
	Node int32
	Port int32
	Flit int32
}

// RingCredit is one ring-buffered credit return.
type RingCredit struct {
	Slot int32
	Node int32
	Port int32
	VC   int32
}

// TrafficState is the attached trace replay's progress. Identity fields
// (Name, Horizon, Len) let the restorer verify the caller re-derived the
// same trace; the trace's arrivals themselves are never serialized.
type TrafficState struct {
	HasTrace bool
	Name     string
	Horizon  sim.Time
	Len      int64
	Index    int64
	PendSeq  int64
}

// SkipStatsState mirrors SkipStats for serialization.
type SkipStatsState struct {
	CyclesExecuted      int64
	CyclesFastForwarded int64
	FastForwards        int64
	RouterTicks         int64
	RouterTicksElided   int64
	RouterTicksSlept    int64
	ActiveHist          []int64
}

// CheckpointState is the complete logical state of a Network between
// steps. Routers are in node order, links in Links() order, injectors in
// node order; every derived structure (activity masks, ring counts,
// allocator work-lists) is rebuilt on restore.
type CheckpointState struct {
	Cycle     int64
	Now       sim.Time
	Seq       int64
	NextPkt   int64
	Injected  int64
	Delivered int64
	InFlight  int64
	MeasStart sim.Time
	// MeasCycle is the cycle counter at BeginMeasurement, which Snapshot
	// counts measured cycles from; MeasStart decides which packets count.
	MeasCycle int64
	// DVSHold records whether the capture was taken under SetDVSHold.
	// Restoring it lets a fork release the hold itself — draining the
	// policy history windows at the same instant the uninterrupted run
	// drains them.
	DVSHold bool

	Packets      []PacketState
	Routers      []router.CheckpointState
	Links        []link.CheckpointState
	Injectors    []InjectorState
	RingArrivals []RingArrival
	RingCredits  []RingCredit

	Lat   stats.LatencyState
	Meter power.MeterState
	Skips SkipStatsState

	Audit   *audit.CheckpointState
	Traffic TrafficState
}

// pktTable assigns dense indices to in-flight packets in capture walk
// order, which is deterministic, so identical simulations capture
// identical tables.
type pktTable struct {
	idx   map[*flow.Packet]int32
	state []PacketState
}

func (t *pktTable) add(p *flow.Packet, queued bool) int32 {
	i := int32(len(t.state))
	t.idx[p] = i
	t.state = append(t.state, PacketState{
		ID:       p.ID,
		Src:      int32(p.Src),
		Dst:      int32(p.Dst),
		Created:  p.Created,
		Injected: p.Injected,
		Task:     p.Task,
		LastDim:  int32(p.LastDim),
		Wrapped:  p.Wrapped,
		Queued:   queued,
	})
	return i
}

// encode registers a live flit: its packet joins the table on first sight
// and its current VC is recorded in the packet's per-flit VC array.
func (t *pktTable) encode(f *flow.Flit) int32 {
	i, ok := t.idx[f.Packet]
	if !ok {
		i = t.add(f.Packet, false)
	}
	t.state[i].FlitVC[f.Seq] = int32(f.VC)
	return i*flow.FlitsPerPacket + int32(f.Seq)
}

// CaptureCheckpoint freezes the network's complete state. The network must
// be between steps (Run/Step not executing).
func (n *Network) CaptureCheckpoint() (*CheckpointState, error) {
	switch {
	case n.tiles != nil:
		// Tiled state (per-tile schedulers, rings, pools, ID spaces) has no
		// capture encoding; the experiment harness runs tiled points on the
		// straight warmup path instead, which is byte-identical to the
		// forked one (PR 7 conformance suite).
		return nil, fmt.Errorf("network: cannot checkpoint a tiled network (Tiles=%d)", n.Cfg.Tiles)
	case n.Probe != nil:
		return nil, fmt.Errorf("network: cannot checkpoint with a Probe attached")
	case n.OnDeliver != nil:
		return nil, fmt.Errorf("network: cannot checkpoint with an OnDeliver observer attached")
	case n.Trace != nil:
		return nil, fmt.Errorf("network: cannot checkpoint with an event trace attached")
	case n.policiesTouched:
		return nil, fmt.Errorf("network: cannot checkpoint after a DVS policy window closed (controller state is not captured; warm up under SetDVSHold)")
	case n.model != nil && n.replay == nil:
		return nil, fmt.Errorf("network: cannot checkpoint a live %q traffic model (only recorded traces resume)", n.model.Name())
	}
	st, err := n.captureState()
	if err != nil {
		return nil, err
	}
	if err := n.verifyPendingEvents(st); err != nil {
		return nil, err
	}
	return st, nil
}

// CaptureForDiff captures logical state for equality comparison only,
// skipping the forkability gates (observers, consumed policy history, live
// models) and the pending-event completeness check. The result is not
// restorable in general — policy-internal and live-model state is absent —
// but two equal simulations produce equal captures, which is exactly what
// the conformance walker needs.
func (n *Network) CaptureForDiff() (*CheckpointState, error) {
	if n.tiles != nil {
		// captureState walks the global ring; a tiled
		// network's in-flight messages live in per-tile structures it does
		// not encode, so the capture would be silently incomplete.
		return nil, fmt.Errorf("network: cannot capture a tiled network for diff (Tiles=%d)", n.Cfg.Tiles)
	}
	return n.captureState()
}

func (n *Network) captureState() (*CheckpointState, error) {
	st := &CheckpointState{
		Cycle:     n.cycle,
		Now:       n.Sched.Now(),
		Seq:       n.Sched.SeqCounter(),
		NextPkt:   n.nextPkt,
		Injected:  n.injected,
		Delivered: n.delivered,
		InFlight:  n.InFlight,
		MeasStart: n.measStart,
		MeasCycle: n.measCycle,
		DVSHold:   n.dvsHold,
		Lat:       n.Lat.Checkpoint(),
		Meter:     n.Meter.Checkpoint(),
		Skips: SkipStatsState{
			CyclesExecuted:      n.skips.CyclesExecuted,
			CyclesFastForwarded: n.skips.CyclesFastForwarded,
			FastForwards:        n.skips.FastForwards,
			RouterTicks:         n.skips.RouterTicks,
			RouterTicksElided:   n.skips.RouterTicksElided,
			RouterTicksSlept:    n.skips.RouterTicksSlept,
			ActiveHist:          append([]int64(nil), n.skips.ActiveHist...),
		},
	}

	tbl := &pktTable{idx: make(map[*flow.Packet]int32)}

	// Routers, in node order.
	st.Routers = make([]router.CheckpointState, len(n.Routers))
	for id, r := range n.Routers {
		rs, err := r.CaptureCheckpoint(tbl.encode)
		if err != nil {
			return nil, err
		}
		st.Routers[id] = *rs
	}

	// Ring buckets, in due-cycle order (each live due cycle is within one
	// ring length of the captured cycle), preserving intra-bucket order.
	outCoord := n.outputCoords()
	for off := int64(0); off <= n.ringMask; off++ {
		slot := (n.cycle + off) & n.ringMask
		b := &n.ring[slot]
		for _, a := range b.arrivals {
			port, err := inputPortIndex(n.Routers[a.node], a.in)
			if err != nil {
				return nil, err
			}
			st.RingArrivals = append(st.RingArrivals, RingArrival{
				Slot: int32(slot), Node: int32(a.node), Port: port, Flit: tbl.encode(a.flit),
			})
		}
		for _, cm := range b.credits {
			co, ok := outCoord[cm.out]
			if !ok {
				return nil, fmt.Errorf("network: ring credit on an unknown output port")
			}
			st.RingCredits = append(st.RingCredits, RingCredit{
				Slot: int32(slot), Node: co[0], Port: co[1], VC: int32(cm.vc),
			})
		}
	}

	// Injectors, in node order: in-progress flit trains first (their flits
	// are live), then whole queued packets.
	st.Injectors = make([]InjectorState, len(n.injectors))
	for node, inj := range n.injectors {
		is := InjectorState{CurrentPkt: -1, VC: int32(inj.vc)}
		if len(inj.current) > 0 {
			for _, f := range inj.current {
				tbl.encode(f)
			}
			is.CurrentPkt = tbl.idx[inj.current[0].Packet]
			is.CurrentOff = int32(flow.FlitsPerPacket - len(inj.current))
		}
		for i := 0; i < inj.qLen; i++ {
			p := inj.queue[(inj.qHead+i)&(len(inj.queue)-1)]
			if _, seen := tbl.idx[p]; seen {
				return nil, fmt.Errorf("network: queued packet %d already has live flits", p.ID)
			}
			is.Queue = append(is.Queue, tbl.add(p, true))
		}
		st.Injectors[node] = is
	}
	st.Packets = tbl.state

	// Links, in Links() order.
	for _, l := range n.Links() {
		st.Links = append(st.Links, l.Checkpoint())
	}

	if n.aud != nil {
		st.Audit = n.aud.Checkpoint()
	}

	if n.replay != nil {
		tr := n.replay.Trace()
		idx, _, pendSeq := n.replay.Progress()
		st.Traffic = TrafficState{
			HasTrace: true,
			Name:     tr.Name(),
			Horizon:  n.horizon,
			Len:      int64(tr.Len()),
			Index:    int64(idx),
			PendSeq:  pendSeq,
		}
	}
	return st, nil
}

// verifyPendingEvents cross-checks the scheduler queue against the
// subsystems that claim pending events: every queued event must be a link
// transition completion or the trace replay's next step — with matching
// (instant, sequence) keys — and vice versa.
func (n *Network) verifyPendingEvents(st *CheckpointState) error {
	var want []sim.PendingEvent
	for _, ls := range st.Links {
		if ls.PendSeq != 0 {
			want = append(want, sim.PendingEvent{At: ls.PendAt, Seq: ls.PendSeq})
		}
	}
	if n.replay != nil && !n.replay.Done() {
		_, at, seq := n.replay.Progress()
		want = append(want, sim.PendingEvent{At: at, Seq: seq})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].At != want[j].At {
			return want[i].At < want[j].At
		}
		return want[i].Seq < want[j].Seq
	})
	got := n.Sched.PendingEvents()
	if len(got) != len(want) {
		return fmt.Errorf("network: checkpoint accounts for %d pending events but the scheduler holds %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("network: pending event %d is (%v, seq %d) in the scheduler but (%v, seq %d) in the checkpoint",
				i, got[i].At, got[i].Seq, want[i].At, want[i].Seq)
		}
	}
	return nil
}

// outputCoords maps every output port to its (node, port) coordinates.
func (n *Network) outputCoords() map[*router.OutputPort][2]int32 {
	m := make(map[*router.OutputPort][2]int32)
	for node, r := range n.Routers {
		for port, out := range r.Outputs {
			m[out] = [2]int32{int32(node), int32(port)}
		}
	}
	return m
}

// inputPortIndex finds the port index of an input port on its router.
func inputPortIndex(r *router.Router, in *router.InputPort) (int32, error) {
	for port, p := range r.Inputs {
		if p == in {
			return int32(port), nil
		}
	}
	return 0, fmt.Errorf("network: input port not found on router %d", r.ID)
}

// RestoreCheckpoint rebuilds a captured state into this freshly
// constructed network. tr must be the same trace the capture ran under
// (verified by name/length/horizon) when the capture had one, nil
// otherwise; the caller re-derives it — snapshots never carry arrival
// data. The network's configuration must be capture-compatible (see
// internal/checkpoint.CompatibleConfig): topology, router and link tables
// identical; policy and thresholds free to differ.
func (n *Network) RestoreCheckpoint(st *CheckpointState, tr *traffic.Trace) error {
	if n.cycle != 0 || n.Sched.Pending() != 0 || n.Sched.Now() != 0 || n.model != nil || n.nextPkt != 0 {
		return fmt.Errorf("network: restore target is not freshly constructed")
	}
	if n.tiles != nil {
		return fmt.Errorf("network: cannot restore into a tiled network (Tiles=%d)", n.Cfg.Tiles)
	}
	if len(st.Routers) != len(n.Routers) {
		return fmt.Errorf("network: restore with %d routers, want %d", len(st.Routers), len(n.Routers))
	}
	if len(st.Injectors) != len(n.injectors) {
		return fmt.Errorf("network: restore with %d injectors, want %d", len(st.Injectors), len(n.injectors))
	}
	links := n.Links()
	if len(st.Links) != len(links) {
		return fmt.Errorf("network: restore with %d links, want %d", len(st.Links), len(links))
	}
	if len(st.Skips.ActiveHist) != len(n.skips.ActiveHist) {
		return fmt.Errorf("network: restore with %d active-hist bins, want %d", len(st.Skips.ActiveHist), len(n.skips.ActiveHist))
	}
	if (st.Audit != nil) != (n.aud != nil) {
		return fmt.Errorf("network: restore audit state present=%t but checker present=%t", st.Audit != nil, n.aud != nil)
	}
	if st.Cycle < 0 || st.Now < 0 || st.Now > sim.Time(st.Cycle)*n.Cfg.RouterPeriod {
		return fmt.Errorf("network: restore cycle %d inconsistent with instant %v", st.Cycle, st.Now)
	}
	if st.MeasCycle < 0 || st.MeasCycle > st.Cycle {
		return fmt.Errorf("network: restore measurement start cycle %d outside [0,%d]", st.MeasCycle, st.Cycle)
	}
	if st.Seq < 0 {
		return fmt.Errorf("network: restore with negative event sequence counter %d", st.Seq)
	}
	// Every pending event re-armed below must carry a dispatch key the
	// captured run could have issued; the scheduler enforces this with
	// panics, so reject malformed keys here, as errors.
	for i, ls := range st.Links {
		if ls.PendSeq != 0 && (ls.PendSeq < 0 || ls.PendSeq > st.Seq || ls.PendAt < st.Now) {
			return fmt.Errorf("network: restore link %d with dispatch key (%v, seq %d) outside the captured run", i, ls.PendAt, ls.PendSeq)
		}
	}
	if st.Traffic.HasTrace {
		if tr == nil {
			return fmt.Errorf("network: capture ran trace %q but no trace was supplied", st.Traffic.Name)
		}
		if tr.Name() != st.Traffic.Name || int64(tr.Len()) != st.Traffic.Len || tr.Horizon() != st.Traffic.Horizon {
			return fmt.Errorf("network: supplied trace %q (len %d, horizon %v) does not match captured %q (len %d, horizon %v)",
				tr.Name(), tr.Len(), tr.Horizon(), st.Traffic.Name, st.Traffic.Len, st.Traffic.Horizon)
		}
		if st.Traffic.Index < 0 || st.Traffic.Index > st.Traffic.Len {
			return fmt.Errorf("network: restore trace index %d outside [0,%d]", st.Traffic.Index, st.Traffic.Len)
		}
		if st.Traffic.Index < st.Traffic.Len &&
			(st.Traffic.PendSeq <= 0 || st.Traffic.PendSeq > st.Seq || tr.At(int(st.Traffic.Index)).At < st.Now) {
			return fmt.Errorf("network: restore trace replay with dispatch key (seq %d) outside the captured run", st.Traffic.PendSeq)
		}
	} else if tr != nil {
		return fmt.Errorf("network: capture had no traffic model but a trace was supplied")
	}

	// Clock and sequence counter first: every AtSeq below validates
	// against them.
	n.Sched.SetNow(st.Now)
	n.Sched.SetSeqCounter(st.Seq)

	// Materialize packets and flit trains through the pool.
	nodes := n.Topo.Nodes()
	pkts := make([]*flow.Packet, len(st.Packets))
	flits := make([][]*flow.Flit, len(st.Packets))
	for i, ps := range st.Packets {
		if ps.Src < 0 || int(ps.Src) >= nodes || ps.Dst < 0 || int(ps.Dst) >= nodes {
			return fmt.Errorf("network: restore packet %d with endpoints %d->%d outside the %d-node topology", ps.ID, ps.Src, ps.Dst, nodes)
		}
		p := n.pool.NewPacket(ps.ID, int(ps.Src), int(ps.Dst), ps.Created, ps.Task)
		p.Injected = ps.Injected
		p.LastDim = int(ps.LastDim)
		p.Wrapped = ps.Wrapped
		pkts[i] = p
		if !ps.Queued {
			fl := n.pool.Flits(p)
			for j := range fl {
				fl[j].VC = int(ps.FlitVC[j])
			}
			flits[i] = fl
		}
	}
	decode := func(ref int32) (*flow.Flit, error) {
		i, j := ref/flow.FlitsPerPacket, ref%flow.FlitsPerPacket
		if ref < 0 || int(i) >= len(flits) {
			return nil, fmt.Errorf("flit reference %d outside the packet table", ref)
		}
		if flits[i] == nil {
			return nil, fmt.Errorf("flit reference %d points into queued packet %d", ref, st.Packets[i].ID)
		}
		return flits[i][j], nil
	}

	for id, r := range n.Routers {
		if err := r.RestoreCheckpoint(&st.Routers[id], decode); err != nil {
			return err
		}
	}
	for i, l := range links {
		if err := l.Restore(st.Links[i]); err != nil {
			return fmt.Errorf("link %d: %w", i, err)
		}
	}

	// Ring messages, preserving bucket order.
	for _, a := range st.RingArrivals {
		if a.Slot < 0 || int(a.Slot) >= len(n.ring) || a.Node < 0 || int(a.Node) >= nodes {
			return fmt.Errorf("network: restore ring arrival with slot %d node %d", a.Slot, a.Node)
		}
		r := n.Routers[a.Node]
		if a.Port < 0 || int(a.Port) >= len(r.Inputs) {
			return fmt.Errorf("network: restore ring arrival with port %d", a.Port)
		}
		f, err := decode(a.Flit)
		if err != nil {
			return fmt.Errorf("network: restore ring arrival: %w", err)
		}
		b := &n.ring[a.Slot]
		b.arrivals = append(b.arrivals, arrivalMsg{in: r.Inputs[a.Port], flit: f, node: int(a.Node)})
		n.ringCount++
	}
	for _, c := range st.RingCredits {
		if c.Slot < 0 || int(c.Slot) >= len(n.ring) || c.Node < 0 || int(c.Node) >= nodes {
			return fmt.Errorf("network: restore ring credit with slot %d node %d", c.Slot, c.Node)
		}
		r := n.Routers[c.Node]
		if c.Port < 0 || int(c.Port) >= len(r.Outputs) || c.VC < 0 || int(c.VC) >= n.Cfg.Router.VCs {
			return fmt.Errorf("network: restore ring credit with port %d vc %d", c.Port, c.VC)
		}
		b := &n.ring[c.Slot]
		b.credits = append(b.credits, creditMsg{out: r.Outputs[c.Port], vc: int(c.VC)})
		n.ringCount++
	}

	// Injectors.
	for node, is := range st.Injectors {
		inj := n.injectors[node]
		if is.VC < 0 || int(is.VC) >= n.Cfg.Router.VCs {
			return fmt.Errorf("network: restore injector %d with vc %d", node, is.VC)
		}
		inj.vc = int(is.VC)
		if is.CurrentPkt >= 0 {
			if int(is.CurrentPkt) >= len(flits) || flits[is.CurrentPkt] == nil {
				return fmt.Errorf("network: restore injector %d with unmaterialized current packet %d", node, is.CurrentPkt)
			}
			if is.CurrentOff < 0 || is.CurrentOff >= flow.FlitsPerPacket {
				return fmt.Errorf("network: restore injector %d with current offset %d", node, is.CurrentOff)
			}
			inj.current = flits[is.CurrentPkt][is.CurrentOff:]
		}
		for _, qi := range is.Queue {
			if qi < 0 || int(qi) >= len(pkts) || !st.Packets[qi].Queued {
				return fmt.Errorf("network: restore injector %d queue references packet index %d", node, qi)
			}
			inj.push(pkts[qi])
		}
	}

	// Scalars, statistics, meters.
	n.cycle = st.Cycle
	n.nextPkt = st.NextPkt
	n.injected = st.Injected
	n.delivered = st.Delivered
	n.InFlight = st.InFlight
	n.measStart = st.MeasStart
	n.measCycle = st.MeasCycle
	n.dvsHold = st.DVSHold
	if err := n.Lat.Restore(st.Lat); err != nil {
		return err
	}
	if err := n.Meter.Restore(st.Meter); err != nil {
		return err
	}
	n.skips.CyclesExecuted = st.Skips.CyclesExecuted
	n.skips.CyclesFastForwarded = st.Skips.CyclesFastForwarded
	n.skips.FastForwards = st.Skips.FastForwards
	n.skips.RouterTicks = st.Skips.RouterTicks
	n.skips.RouterTicksElided = st.Skips.RouterTicksElided
	n.skips.RouterTicksSlept = st.Skips.RouterTicksSlept
	copy(n.skips.ActiveHist, st.Skips.ActiveHist)

	if st.Audit != nil {
		if err := n.aud.Restore(st.Audit); err != nil {
			return err
		}
	}

	// Traffic replay, resumed mid-walk under its captured dispatch key.
	if st.Traffic.HasTrace {
		rp, err := tr.Resume(n.Sched, n.Inject, int(st.Traffic.Index), st.Traffic.PendSeq)
		if err != nil {
			return err
		}
		n.model, n.horizon, n.replay = tr, st.Traffic.Horizon, rp
	}

	// Activity masks: at a step boundary the active set is exactly the
	// busy routers and the injector set exactly the nodes with source work.
	// Sleepers are re-derived, not serialized: every busy router with no
	// buffered flits is offered to sleep, which parks it unless it is due on
	// the next cycle (when parked or not makes no difference). No link
	// transition can have started before a capture (it refuses once a policy
	// window closed), so sleepUntil reads the same tx fronts and link clocks
	// the captured run's last visit did. Under noskip every bit is already
	// permanently set.
	if !n.noskip {
		for id, r := range n.Routers {
			if r.Busy() {
				n.markActive(id)
				if r.BufferedFlits() == 0 {
					n.sleep(id, r, st.Now)
				}
			}
		}
		for node, inj := range n.injectors {
			if len(inj.current) > 0 || inj.qLen > 0 {
				n.markInject(node)
			}
		}
	}
	return nil
}
