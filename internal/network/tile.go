// Intra-run tile parallelism: the mesh is partitioned into contiguous
// blocks of routers ("tiles"), each advanced by its own scheduler, in
// conservative lookahead windows that meet at merge points. The window
// length is extracted per window from live occupancy — the directed hop
// distance from the nearest buffered or injector-pending flit to a tile
// boundary, the ready/serializer state of queued link transmissions, and
// the horizons of pending ring messages and scheduler events (see bound) — and
// never falls below the constant floor W = ceil(topLinkPeriod/routerPeriod)
// the engine used before PR 10 (1 with the paper's table, which forced a
// barrier every router cycle). A window end that finds every cross-tile
// outbox empty elides the merge entirely: deliveries, counters and tick
// logs keep accumulating until the next real merge (bounded by
// maxTileWindow), while policy windows and audit scans still run at their
// exact cycles.
//
// Why the output is byte-identical to the sequential core:
//
//   - Isolation inside a window. Every cross-tile interaction is a flit
//     arrival or a credit return. The planner ends a window at e no later
//     than every tile's promised bound — a conservative earliest possible
//     cross-tile effect computed from the tile's own state at the window
//     start — or at the intrinsically safe single-cycle window w0+1 (any
//     cross-tile message is delayed by at least one top-level link period,
//     i.e. at least one router cycle). A message generated inside [w0, e)
//     is therefore due at or after e, so no event inside a window can
//     observe another tile's activity in the same window. Every merge
//     re-checks the hard invariant due >= e, and under lookahead verification
//     or an audit each merged message is also checked against the bound its
//     source tile promised when the window was planned (LookaheadViolations).
//   - Canonical cross-tile delivery. Outboxed messages drain at the merge
//     in (source tile, generation order) into the destination tile's delay
//     ring, bucketed by due cycle. Merges happen no later than any
//     outboxed message's due cycle (a window end with a non-empty outbox
//     always merges), so messages land in the ring before the cycle that
//     delivers them. Within one ring bucket the sequential core's order is
//     immaterial: a link serializer spaces consecutive sends at least one
//     period apart, so at most one flit lands per input port per cycle
//     (arrivals to distinct ports commute), and credit returns are counter
//     increments that commute per (port, VC); drainRing applies all
//     arrivals before all credits in both engines.
//   - Deterministic accumulator merge. The only order-sensitive global
//     accumulator is the latency stream (Welford moments). Tiles buffer
//     deliveries and the merge replays them in (cycle, tile) order —
//     which equals the sequential engine's (cycle, ascending node) order,
//     because tiles own ascending contiguous node ranges and each tile's
//     step ejects at its routers in ascending order. Elision only defers
//     the replay; the buffered (cycle, tile) keys are unchanged. Integer
//     counters (injected, delivered, InFlight) merge additively.
//   - Synchronized global machinery. DVS policy windows and audit scans
//     run at window ends on the single coordinating goroutine: windows are
//     clamped so an end lands exactly on every policy/scan boundary, with
//     the same cycle number and simulation instant as the sequential Step.
//     Policy edges do not force a merge — runPolicies reads only per-link
//     and per-port state, all tile-owned and settled at the window end.
//     Audit scans do force one: they walk every ledger.
//   - Packet identity. Each tile draws packet IDs from a disjoint space
//     (tile index in the high bits). IDs differ from the sequential run's
//     but are semantically inert: allocation arbiters are positional, and
//     no result, statistic or golden artifact carries an ID.
//
// The skip statistics are the one place the tiled engine's internal
// accounting diverges from the sequential core's: a tile that is locally
// idle inside a window jumps straight to its next scheduler event,
// recording zero-tick executed cycles where the sequential engine would
// have fast-forwarded globally. The totals still balance (executed +
// fast-forwarded cycles, ticks + elided ticks), and no golden artifact or
// equivalence check reads the split.
//
// Unaudited windows run on one persistent worker goroutine per tile when
// more than one CPU is available (or when forceTileWorkers pins the
// concurrent path for the race detector); on a single-CPU host the tiles
// run inline on the coordinator, where worker channel hops would be pure
// overhead. Audited runs always execute tiles sequentially on the
// coordinating goroutine (the audit checker's ledgers are single-threaded
// maps); results are identical either way, so the audit still proves the
// tiled datapath. Checkpoint capture refuses tiled networks (see
// CaptureCheckpoint): the experiment harness runs tiled points on the
// straight warmup path, which PR 7's conformance suite proved
// byte-identical to the forked one.
package network

import (
	"fmt"
	"math/bits"
	"runtime"

	"repro/internal/audit"
	"repro/internal/flow"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

const (
	// maxTileWindow caps both the planned window length and the merge
	// deferral span, bounding the deliveries/tick-log buffers a tile can
	// accumulate before a merge is forced.
	maxTileWindow = 4096
	// farDist marks a router with no directed intra-tile path to a
	// boundary router; its flits can never cross on their own.
	farDist = 1 << 20
	// farFuture is an effectively infinite hazard horizon.
	farFuture = int64(1) << 62
)

// tileMsg is one cross-tile message parked in an outbox until the next
// merge: a flit arrival when in is non-nil, otherwise a credit return.
type tileMsg struct {
	due  int64 // router cycle that delivers it
	node int   // arrival destination router; -1 for credits
	in   *router.InputPort
	flit *flow.Flit
	out  *router.OutputPort
	vc   int
}

// tileDelivery is one delivered packet buffered for the merge's ordered
// replay into the global latency/throughput accumulators.
type tileDelivery struct {
	cycle int64
	p     *flow.Packet
}

// borderPort names one tile-owned input port fed by a cross-tile channel:
// a flit departing it owes a credit to another tile one link period later.
type borderPort struct {
	node, port int
}

// tileState is one tile: a contiguous block of routers [lo, hi) with its
// own scheduler, delay ring, packet pool and activity masks — the per-tile
// mirror of the Network fields the sequential engine uses. Masks are
// full-length word slices (only bits in [lo, hi) are ever set) so the
// per-router pass keeps the sequential engine's shape.
type tileState struct {
	n      *Network
	id     int
	lo, hi int
	idBase int64 // packet IDs are idBase + per-tile sequence

	sched sim.Scheduler
	cycle int64

	ring      []ringBucket
	ringCount int
	pool      flow.Pool
	nextPkt   int64
	replay    *traffic.Replay

	activeMask  []uint64
	activeCount int
	injMask     []uint64
	injCount    int

	// Boundary geometry, fixed at construction (one BFS per tile).
	// distB[nd] is the directed hop distance from router nd to the nearest
	// router with a cross-tile output channel (farDist when no path);
	// nbrD[nd*ports+p] is that distance for the neighbor behind intra-tile
	// port p of nd, -1 for a cross-tile (or unconnected) port; borderIn
	// lists the tile's input ports fed by other tiles; noBorder marks a
	// tile with no cross-tile channel in either direction; pipeC is the
	// minimum router pipeline traversal in cycles.
	distB    []int32
	nbrD     []int32
	borderIn []borderPort
	noBorder bool
	pipeC    int64

	// Extracted-lookahead state. ringMin/crossRingMin are conservative
	// hazard horizons of the intra-tile and merged cross-tile messages
	// sitting in the delay ring (monotone non-increasing until the ring
	// empties; stale-low values only shorten windows). promised is the
	// bound computed at the end of the last window (covering the next
	// one); pledge is the promise that covered the window just run — the
	// bound its outboxed messages are verified against.
	ringMin      int64
	crossRingMin int64
	promised     int64
	pledge       int64

	// outbox[d] holds messages bound for tile d, in generation order.
	outbox [][]tileMsg
	// deliveries buffers delivered packets (nondecreasing cycle order) for
	// the merge replay; delIdx is the replay cursor.
	deliveries []tileDelivery
	delIdx     int
	// ticked[i] is the number of routers ticked in the i-th cycle past the
	// merge frontier, merged into the global skip stats at the next merge.
	ticked []int

	injected      int64
	inFlightDelta int64
}

// initTiles builds the tile partition: count contiguous blocks of
// ceil(nodes/count) routers, the lookahead floor from the minimum link
// latency, and the per-tile boundary geometry the window planner reads.
func (n *Network) initTiles(count int) {
	nodes := n.Topo.Nodes()
	words := (nodes + 63) / 64
	block := (nodes + count - 1) / count
	n.tileOf = make([]int, nodes)
	for i := 0; i < count; i++ {
		lo := i * block
		hi := lo + block
		if lo > nodes {
			lo = nodes
		}
		if hi > nodes {
			hi = nodes
		}
		t := &tileState{
			n: n, id: i, lo: lo, hi: hi,
			idBase:     int64(i) << 48,
			ring:       make([]ringBucket, len(n.ring)),
			activeMask: make([]uint64, words),
			injMask:    make([]uint64, words),
			outbox:     make([][]tileMsg, count),
		}
		for nd := lo; nd < hi; nd++ {
			n.tileOf[nd] = i
		}
		n.tiles = append(n.tiles, t)
	}
	// The minimum cross-tile delay is one top-level link period (the
	// fastest serialization and the fastest credit return); the window
	// floor is its span in router cycles, at least one.
	n.lookahead = n.lvlCycles[n.Table.Top()]
	if n.lookahead < 1 {
		n.lookahead = 1
	}
	n.initTileGeometry(count)
}

// initTileGeometry precomputes the boundary-distance data behind the
// extracted lookahead: one reverse BFS per tile from its boundary-source
// routers over the intra-tile channels (so distB is the directed flit
// distance *to* a boundary), the per-port neighbor distances, and the
// border-fed input port lists. Runs before links exist — only the
// topology is needed.
func (n *Network) initTileGeometry(count int) {
	nodes := n.Topo.Nodes()
	ports := n.Cfg.Router.Ports
	pipeC := int64(n.Cfg.Router.PipelineDepth - 3) // traverse latency; depth >= 4 validated
	for _, t := range n.tiles {
		t.pipeC = pipeC
		t.ringMin, t.crossRingMin = farFuture, farFuture
		t.distB = make([]int32, nodes)
		for i := range t.distB {
			t.distB[i] = farDist
		}
		t.nbrD = make([]int32, nodes*ports)
		for i := range t.nbrD {
			t.nbrD[i] = -1
		}
	}
	// Reverse intra-tile adjacency (channel predecessors), and the
	// cross-channel endpoints: sources seed the BFS at distance zero,
	// destinations contribute border-fed input ports.
	radj := make([][]int32, nodes)
	hasCross := make([]bool, count)
	for _, ch := range n.Topo.Channels() {
		st, dt := n.tileOf[ch.Src], n.tileOf[ch.Dst]
		if st == dt {
			radj[ch.Dst] = append(radj[ch.Dst], int32(ch.Src))
			continue
		}
		hasCross[st] = true
		n.tiles[st].distB[ch.Src] = 0
		n.tiles[dt].borderIn = append(n.tiles[dt].borderIn,
			borderPort{node: ch.Dst, port: n.Topo.PortFor(ch.Dim, 1-ch.Dir)})
	}
	var queue []int32
	for _, t := range n.tiles {
		t.noBorder = !hasCross[t.id] && len(t.borderIn) == 0
		queue = queue[:0]
		for nd := t.lo; nd < t.hi; nd++ {
			if t.distB[nd] == 0 {
				queue = append(queue, int32(nd))
			}
		}
		for len(queue) > 0 {
			nd := queue[0]
			queue = queue[1:]
			d := t.distB[nd] + 1
			for _, pr := range radj[nd] {
				if t.distB[pr] > d {
					t.distB[pr] = d
					queue = append(queue, pr)
				}
			}
		}
	}
	for _, ch := range n.Topo.Channels() {
		if st := n.tileOf[ch.Src]; st == n.tileOf[ch.Dst] {
			t := n.tiles[st]
			t.nbrD[ch.Src*ports+n.Topo.PortFor(ch.Dim, ch.Dir)] = t.distB[ch.Dst]
		}
	}
}

// schedFor reports the scheduler a channel leaving node must use: the
// owning tile's when tiled, the global one otherwise.
func (n *Network) schedFor(node int) *sim.Scheduler {
	if n.tiles != nil {
		return &n.tiles[n.tileOf[node]].sched
	}
	return n.Sched
}

// Tiled reports whether this network runs the tile-parallel engine.
func (n *Network) Tiled() bool { return n.tiles != nil }

// owns reports whether the tile owns a node (the trace-filter predicate).
func (t *tileState) owns(node int) bool { return node >= t.lo && node < t.hi }

func (t *tileState) markActive(node int) {
	w, b := node>>6, uint64(1)<<(node&63)
	if t.activeMask[w]&b == 0 {
		t.activeMask[w] |= b
		t.activeCount++
	}
}

func (t *tileState) markInject(node int) {
	w, b := node>>6, uint64(1)<<(node&63)
	if t.injMask[w]&b == 0 {
		t.injMask[w] |= b
		t.injCount++
	}
}

// inject is the tile's traffic.Injector: Network.Inject restricted to the
// tile's sources, drawing IDs from the tile's disjoint space and deferring
// the global counters to the merge.
func (t *tileState) inject(src, dst int, now sim.Time, task int64) {
	if src == dst {
		return
	}
	n := t.n
	t.nextPkt++
	p := t.pool.NewPacket(t.idBase+t.nextPkt, src, dst, now, task)
	n.injectors[src].push(p)
	t.markInject(src)
	t.injected++
	t.inFlightDelta++
	if n.aud != nil {
		n.aud.OnInject(p, t.cycle)
	}
}

// enqueueArrival mirrors Network.enqueueArrival on the tile's ring, folding
// the arrival's boundary hazard into ringMin. Only intra-tile messages come
// here; cross-tile ones go through the outbox.
func (t *tileState) enqueueArrival(end *chanEnd, f *flow.Flit, lvl int) {
	due := t.cycle + t.n.lvlCycles[lvl]
	b := &t.ring[due&t.n.ringMask]
	b.arrivals = append(b.arrivals, arrivalMsg{in: end.in, flit: f, node: end.node})
	t.ringCount++
	if d := t.distB[end.node]; d < farDist {
		if h := due + (t.pipeC+t.n.lookahead)*int64(d+1); h < t.ringMin {
			t.ringMin = h
		}
	}
}

// enqueueCredit mirrors Network.enqueueCredit on the tile's ring. Credits
// carry no boundary hazard of their own: they only unblock buffered flits,
// which the bound already counts at their positions.
func (t *tileState) enqueueCredit(out *router.OutputPort, vc int, lvl int) {
	b := &t.ring[(t.cycle+t.n.lvlCycles[lvl])&t.n.ringMask]
	b.credits = append(b.credits, creditMsg{out: out, vc: vc})
	t.ringCount++
}

// bound computes a conservative earliest cycle at which the tile's state
// at window start w0 could produce a cross-tile effect — a flit arrival in
// another tile or a credit return to one. Hazard sources, each a provable
// lower bound on its earliest boundary crossing:
//
//   - An occupied border-fed input port: a flit may depart it this cycle,
//     owing the upstream tile a credit one link period later (>= the
//     top-level period, i.e. >= lookahead cycles). This is the only hazard
//     that can reach the floor w0+lookahead, so it short-circuits.
//   - A queued link transmission: the front entry cannot send before its
//     pipeline ready instant and the serializer's earliest next send
//     (DVSLink.EarliestSend; voltage/frequency transitions only delay).
//     On a cross-tile port the arrival lands one link period later; on an
//     intra-tile port the flit still has nbrD+1 hops to a boundary, each
//     at least one pipeline traversal plus one top-period link crossing.
//   - A buffered or injector-pending flit at distance d: it cannot cross
//     before d+1 full hops, pipeC+lookahead cycles each.
//   - A pending scheduler event (replay injection, DVS completion): nothing lands at a router before the event's due cycle,
//     and a boundary crossing needs at least one traversal plus one link
//     period after that.
//   - Ring messages: ringMin (intra arrivals, folded in by enqueueArrival)
//     and crossRingMin (merged cross arrivals, folded in by mergeTiles).
//
// Credits never create hazards directly: link transmission needs no
// credits, and a credit only unblocks buffered flits that the positional
// term already counts as immediately movable. The result is clamped to
// [w0+lookahead, w0+maxTileWindow] — never below the constant floor the
// pre-extraction engine used.
func (t *tileState) bound(w0 int64) int64 {
	n := t.n
	la := n.lookahead
	floor := w0 + la
	best := w0 + maxTileWindow
	if t.noBorder {
		return best
	}
	for _, bp := range t.borderIn {
		if n.Routers[bp.node].Inputs[bp.port].Occupied() > 0 {
			return floor
		}
	}
	if t.ringCount == 0 {
		t.ringMin, t.crossRingMin = farFuture, farFuture
	} else {
		if t.ringMin < best {
			best = t.ringMin
		}
		if t.crossRingMin < best {
			best = t.crossRingMin
		}
	}
	if t.sched.Pending() > 0 {
		if h := n.dueCycle(t.sched.PeekTime()) + t.pipeC + la; h < best {
			best = h
		}
	}
	hop := t.pipeC + la
	ports := n.Cfg.Router.Ports
	minD := int32(farDist)
	for w, word := range t.activeMask {
		base := w << 6
		for word != 0 {
			node := base + bits.TrailingZeros64(word)
			word &= word - 1
			r := n.Routers[node]
			if r.BufferedFlits() > 0 && t.distB[node] < minD {
				minD = t.distB[node]
			}
			if r.LinkTxQueued() == 0 {
				continue
			}
			for m := r.TxPortMask() &^ 1; m != 0; m &= m - 1 {
				port := bits.TrailingZeros32(m)
				out := r.Outputs[port]
				l := out.Link
				if l == nil {
					continue
				}
				s := n.dueCycle(out.TxFront().ReadyAt())
				if c := n.dueCycle(l.EarliestSend()); c > s {
					s = c
				}
				if s < w0 {
					s = w0
				}
				h := s + la
				if d := t.nbrD[node*ports+port]; d >= 0 {
					if d >= farDist {
						continue // neighbor cannot reach a boundary
					}
					h += hop * int64(d+1)
				}
				if h < best {
					best = h
					if best <= floor {
						return floor
					}
				}
			}
		}
	}
	for w, word := range t.injMask {
		base := w << 6
		for word != 0 {
			node := base + bits.TrailingZeros64(word)
			word &= word - 1
			if t.distB[node] < minD {
				minD = t.distB[node]
			}
		}
	}
	if minD < farDist {
		if h := w0 + hop*int64(minD+1); h < best {
			best = h
		}
	}
	if best < floor {
		best = floor
	}
	return best
}

// runTo advances the tile to cycle e, one step per cycle, jumping over
// locally idle stretches (no active routers, no injector work, no ring
// messages) straight to the tile's next scheduler event. This is the loop
// each tile worker runs between merges; it touches only tile-owned state
// (its routers, links, injectors, ring, pool) plus immutable shared data.
// On return, promised holds the bound covering the next window.
func (t *tileState) runTo(e int64) {
	for t.cycle < e {
		if t.activeCount == 0 && t.injCount == 0 && t.ringCount == 0 {
			c := e
			if t.sched.Pending() > 0 {
				if d := t.n.dueCycle(t.sched.PeekTime()); d < c {
					c = d
				}
			}
			if c > t.cycle {
				if ran := t.sched.RunUntil(sim.Time(c-1) * t.n.Cfg.RouterPeriod); ran != 0 {
					panic(fmt.Sprintf("network: tile fast-forward to cycle %d ran %d events — jump bound broken", c, ran))
				}
				for i := t.cycle; i < c; i++ {
					t.ticked = append(t.ticked, 0)
				}
				t.cycle = c
				continue
			}
		}
		t.step()
	}
	t.promised = t.bound(e)
}

// step is Network.Step restricted to one tile: deliver the tile's pending
// events, inject at the tile's sources, then the same single pass over its
// active routers (tick, transmit, eject, retire) at identical instants.
// Policy windows and audit scans are window-end work and deliberately
// absent here.
func (t *tileState) step() {
	n := t.n
	now := sim.Time(t.cycle) * n.Cfg.RouterPeriod
	t.sched.RunUntil(now)
	t.drainRing(now)
	t.injectFlits(now)
	ticked := 0
	for w, word := range t.activeMask {
		base := w << 6
		for word != 0 {
			node := base + bits.TrailingZeros64(word)
			word &= word - 1
			r := n.Routers[node]
			r.Tick(now, n.Cfg.RouterPeriod)
			ticked++
			if r.LinkTxQueued() > 0 {
				t.transmitNode(r, node, now)
			}
			t.ejectNode(r, now)
			if !r.Busy() {
				t.activeMask[w] &^= 1 << (node & 63)
				t.activeCount--
			}
		}
	}
	t.ticked = append(t.ticked, ticked)
	t.cycle++
}

// drainRing delivers the tile's messages due this cycle.
func (t *tileState) drainRing(now sim.Time) {
	b := &t.ring[t.cycle&t.n.ringMask]
	t.ringCount -= len(b.arrivals) + len(b.credits)
	for i, a := range b.arrivals {
		t.markActive(a.node)
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

// injectFlits mirrors Network.injectFlits over the tile's injector mask.
func (t *tileState) injectFlits(now sim.Time) {
	n := t.n
	for w, word := range t.injMask {
		base := w << 6
		for word != 0 {
			node := base + bits.TrailingZeros64(word)
			word &= word - 1
			inj := n.injectors[node]
			t.injectOne(node, inj, now)
			if len(inj.current) == 0 && inj.qLen == 0 {
				t.injMask[w] &^= 1 << (node & 63)
				t.injCount--
			}
		}
	}
}

// injectOne mirrors Network.injectOne with the tile's pool and cycle.
func (t *tileState) injectOne(node int, inj *injector, now sim.Time) {
	n := t.n
	in := n.Routers[node].Inputs[topology.LocalPort]
	if len(inj.current) == 0 {
		if inj.qLen == 0 {
			return
		}
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
		inj.current = t.pool.Flits(p)
		inj.vc = best
		if n.aud != nil {
			n.aud.OnSourceDequeue(p, t.cycle)
		}
	}
	if in.Free(inj.vc) < 1 {
		return
	}
	f := inj.current[0]
	inj.current = inj.current[1:]
	f.VC = inj.vc
	t.markActive(node)
	in.Arrive(f, now)
}

// transmitNode mirrors Network.transmitNode; arrivals bound for another
// tile are parked in the outbox until the merge.
func (t *tileState) transmitNode(r *router.Router, node int, now sim.Time) {
	n := t.n
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
			n.aud.OnLinkSend(node, port, l, f, now, t.cycle)
		}
		l.Send(now)
		end := &ends[port]
		if end.in == nil {
			panic("network: flit routed off the mesh edge")
		}
		advanceDateline(f, end)
		if dt := n.tileOf[end.node]; dt != t.id {
			t.outbox[dt] = append(t.outbox[dt],
				tileMsg{due: t.cycle + n.lvlCycles[l.Level()], node: end.node, in: end.in, flit: f})
		} else {
			t.enqueueArrival(end, f, l.Level())
		}
	}
}

// ejectNode mirrors Network.ejectNode; tails are buffered for the merge's
// ordered replay instead of touching the global accumulators.
func (t *tileState) ejectNode(r *router.Router, now sim.Time) {
	if r.LocalTxQueued() == 0 {
		return
	}
	n := t.n
	out := r.Outputs[topology.LocalPort]
	for out.QueuedTx() > 0 && out.TxFront().ReadyAt() <= now {
		e := out.PopTx()
		f := e.Flit()
		if n.aud != nil {
			n.aud.OnEject(f, r.ID, t.cycle)
		}
		if f.Kind != flow.Tail {
			continue
		}
		p := f.Packet
		p.Delivered = now
		if n.aud != nil {
			n.aud.OnDeliver(p, t.cycle)
		}
		t.deliveries = append(t.deliveries, tileDelivery{cycle: t.cycle, p: p})
	}
}

// walkTransit shows the audit the tile's in-flight messages.
func (t *tileState) walkTransit(v audit.TransitVisitor) {
	walkRing(t.ring, v)
	for _, box := range t.outbox {
		for _, m := range box {
			if m.in != nil {
				v.Flit(m.in, m.flit)
			} else {
				v.Credit(m.out, m.vc)
			}
		}
	}
}

// runTiled is Run for the tiled engine: advance in extracted-lookahead
// windows, merging cross-tile state only when a window produced cross-tile
// messages (or an audit edge or the deferral cap forces it), and
// fast-forwarding fully quiescent stretches exactly like the sequential
// core. Unaudited windows run on one persistent worker goroutine per tile
// when the host has more than one CPU (or forceTileWorkers is set);
// otherwise tiles run inline on the coordinator.
func (n *Network) runTiled(cycles int64) {
	if n.Trace != nil {
		// Tile steps do not log packet events (the buffer is unsynchronized
		// and event order would depend on tile interleaving); refuse rather
		// than silently drop them.
		panic("network: event tracing requires an untiled network")
	}
	target := n.cycle + cycles
	for _, t := range n.tiles {
		t.promised = t.bound(n.cycle)
	}
	useWorkers := n.aud == nil && (n.forceTileWorkers || runtime.GOMAXPROCS(0) > 1)
	var work []chan int64
	var done chan struct{}
	if useWorkers {
		done = make(chan struct{}, len(n.tiles))
		for _, t := range n.tiles {
			ch := make(chan int64)
			work = append(work, ch)
			go func(t *tileState, ch chan int64) {
				for e := range ch {
					t.runTo(e)
					done <- struct{}{}
				}
			}(t, ch)
		}
		defer func() {
			for _, ch := range work {
				close(ch)
			}
		}()
	}
	for n.cycle < target {
		if n.tilesQuiescent() {
			if c := n.nextInterestingCycleTiled(target); c > n.cycle {
				if n.tileMerged < n.cycle {
					n.mergeTiles(n.cycle)
				}
				n.fastForwardTiled(c)
				for _, t := range n.tiles {
					t.promised = t.bound(n.cycle)
				}
				continue
			}
		}
		e := n.tilePlanWindow(target)
		if work == nil {
			for _, t := range n.tiles {
				t.runTo(e)
			}
		} else {
			for _, ch := range work {
				ch <- e
			}
			for range work {
				<-done
			}
		}
		n.tileWindowEnd(e)
	}
	// Run boundaries expose the global accumulators (Snapshot,
	// BeginMeasurement, checkpointing): settle every deferred merge.
	if n.tileMerged < n.cycle {
		n.mergeTiles(n.cycle)
	}
}

// tilesQuiescent reports whether no tile holds live work: mirrors the
// sequential quiescence test per tile. Outboxes are empty whenever this is
// consulted (a window end with a non-empty outbox merges), but deliveries
// and tick logs may still be deferred — runTiled settles them before
// fast-forwarding.
func (n *Network) tilesQuiescent() bool {
	for _, t := range n.tiles {
		if t.activeCount != 0 || t.injCount != 0 || t.ringCount != 0 {
			return false
		}
	}
	return true
}

// nextInterestingCycleTiled is nextInterestingCycle with the earliest
// pending event taken across the per-tile schedulers.
func (n *Network) nextInterestingCycleTiled(target int64) int64 {
	next := target
	for _, t := range n.tiles {
		if t.sched.Pending() > 0 {
			next = min(next, n.dueCycle(t.sched.PeekTime()))
		}
	}
	return n.edgeBound(next)
}

// fastForwardTiled jumps every tile (and the global clock) to cycle c; no
// tile scheduler may hold an event inside the jumped span, and every
// deferred merge must have been settled (tileMerged == cycle).
func (n *Network) fastForwardTiled(c int64) {
	skipped := c - n.cycle
	n.skips.CyclesFastForwarded += skipped
	n.skips.FastForwards++
	n.skips.RouterTicksElided += skipped * int64(len(n.Routers))
	n.cycle = c
	n.tileMerged = c
	edge := sim.Time(c-1) * n.Cfg.RouterPeriod
	for _, t := range n.tiles {
		t.cycle = c
		if ran := t.sched.RunUntil(edge); ran != 0 {
			panic(fmt.Sprintf("network: tiled fast-forward to cycle %d ran %d events — jump bound broken", c, ran))
		}
	}
	if ran := n.Sched.RunUntil(edge); ran != 0 {
		panic("network: events on the global scheduler of a tiled run")
	}
}

// tilePlanWindow reports the next window end: the minimum over tiles of
// each tile's promised bound — lowered by the hazard horizon of cross-tile
// arrivals merged after that promise was computed — capped at the merge
// deferral limit, clamped so every policy-window close and audit scan
// lands on a window end (edgeBound, the boundary set nextInterestingCycle
// respects, one cycle on: a window ends after its last cycle), and floored
// at one cycle: a single-cycle window is intrinsically safe because every
// cross-tile message is delayed by at least one top-level link period.
// Each tile's pledge — the bound its outboxed messages are verified
// against — is fixed here.
func (n *Network) tilePlanWindow(target int64) int64 {
	e := target
	if capAt := n.tileMerged + maxTileWindow; e > capAt {
		e = capAt
	}
	for _, t := range n.tiles {
		b := t.promised
		if t.ringCount > 0 && t.crossRingMin < b {
			b = t.crossRingMin
		}
		t.pledge = b
		if b < e {
			e = b
		}
	}
	return n.edgeBound(e-1) + 1
}

// tileWindowEnd closes the window ending at cycle e: advance the global
// clock, merge the tiles — or elide the merge when every cross-tile outbox
// is empty and no audit scan or deferral cap forces one — then run the
// cycle-aligned global machinery (policy windows, audit scans) at exactly
// the instants the sequential Step would.
func (n *Network) tileWindowEnd(e int64) {
	n.cycle = e
	edge := sim.Time(e-1) * n.Cfg.RouterPeriod
	if ran := n.Sched.RunUntil(edge); ran != 0 {
		panic("network: events on the global scheduler of a tiled run")
	}
	n.skips.TileWindows++
	merge := n.noTileElide || e-n.tileMerged >= maxTileWindow
	if !merge {
	outboxes:
		for _, t := range n.tiles {
			for _, box := range t.outbox {
				if len(box) != 0 {
					merge = true
					break outboxes
				}
			}
		}
	}
	if !merge && n.aud != nil && e%n.aud.ScanEvery() == 0 {
		merge = true // scans walk every ledger, including deferred state
	}
	if merge {
		n.mergeTiles(e)
	} else {
		n.skips.TileBarriersElided++
	}
	if !n.dvsHold && e%int64(n.Cfg.DVS.H) == 0 {
		n.runPolicies(edge)
	}
	if n.aud != nil && e%n.aud.ScanEvery() == 0 {
		n.aud.EndCycle(e, edge)
	}
}

// mergeTiles drains the cross-tile outboxes in canonical order and replays
// the deferred per-tile accumulators into the global ones, advancing the
// merge frontier to cycle e: buffered deliveries replay in (cycle, tile)
// order, integer counters merge additively, and per-cycle tick logs fold
// into the skip statistics. Under lookahead verification or an audit,
// every outboxed message is checked against the bound its source tile
// pledged for the window that generated it.
func (n *Network) mergeTiles(e int64) {
	w0 := n.tileMerged
	n.skips.TileBarriers++
	verify := n.verifyLookahead || n.aud != nil

	// Cross-tile messages, in (source tile, generation order), bucketed
	// into the destination tile's ring by due cycle. Every message was
	// generated in the window just ended (earlier windows with non-empty
	// outboxes merged at their own ends), so the lookahead bound guarantees
	// due >= e; it left by cycle e-1 over a delay shorter than the ring
	// (ringLen), so its bucket is free of any other due cycle. Merged flit arrivals are new
	// hazards the destination's promise has not seen; fold them into its
	// crossRingMin (the arrival's own onward journey and the credit it will
	// owe are both at least one link period past its due cycle).
	for _, src := range n.tiles {
		for dt, box := range src.outbox {
			if len(box) == 0 {
				continue
			}
			dest := n.tiles[dt]
			for i, m := range box {
				due := m.due
				if verify && due < src.pledge {
					n.laViolations++
				}
				if due < e {
					panic(fmt.Sprintf("network: cross-tile message due cycle %d before window end %d", due, e))
				}
				b := &dest.ring[due&n.ringMask]
				if m.node >= 0 {
					b.arrivals = append(b.arrivals, arrivalMsg{in: m.in, flit: m.flit, node: m.node})
					if h := due + n.lookahead; h < dest.crossRingMin {
						dest.crossRingMin = h
					}
				} else {
					b.credits = append(b.credits, creditMsg{out: m.out, vc: m.vc})
				}
				dest.ringCount++
				box[i] = tileMsg{}
			}
			src.outbox[dt] = box[:0]
		}
	}

	// Delivery replay: (cycle, tile) order equals the sequential engine's
	// (cycle, ascending node) eject order, so the order-sensitive latency
	// stream accumulates bit-identically.
	for c := w0; c < e; c++ {
		for _, t := range n.tiles {
			for t.delIdx < len(t.deliveries) && t.deliveries[t.delIdx].cycle == c {
				p := t.deliveries[t.delIdx].p
				t.delIdx++
				n.InFlight--
				if p.Created >= n.measStart {
					n.Lat.Add(p.Latency())
					n.delivered++
				}
				t.pool.Recycle(p)
			}
		}
	}
	span := int(e - w0)
	nodes := len(n.Routers)
	for _, t := range n.tiles {
		if t.delIdx != len(t.deliveries) {
			panic("network: tiled delivery recorded outside its window")
		}
		if len(t.ticked) != span {
			panic("network: tiled tick log out of step with the merge frontier")
		}
		for i := range t.deliveries {
			t.deliveries[i] = tileDelivery{}
		}
		t.deliveries, t.delIdx = t.deliveries[:0], 0
		n.injected += t.injected
		n.InFlight += t.inFlightDelta
		t.injected, t.inFlightDelta = 0, 0
	}
	for i := 0; i < span; i++ {
		total := 0
		for _, t := range n.tiles {
			total += t.ticked[i]
		}
		n.skips.CyclesExecuted++
		n.skips.RouterTicks += int64(total)
		n.skips.RouterTicksElided += int64(nodes - total)
		n.skips.ActiveHist[total]++
	}
	for _, t := range n.tiles {
		t.ticked = t.ticked[:0]
	}
	n.tileMerged = e
}
