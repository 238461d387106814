package router

import (
	"fmt"
	"math/bits"

	"repro/internal/flow"
	"repro/internal/routing"
	"repro/internal/sim"
)

// Config sizes a router. NewConfig returns the paper's setup.
type Config struct {
	// Ports is the number of router ports including the local
	// injection/ejection port 0.
	Ports int
	// VCs is the number of virtual channels per port (paper: 2).
	VCs int
	// BufPerPort is the flit buffer capacity of one input port, divided
	// evenly among its VCs (paper: 128).
	BufPerPort int
	// PipelineDepth is the head-flit latency through router plus link at
	// full link speed, in router cycles (paper: 13, like the Alpha 21364's
	// integrated router). Three cycles are the RC/VA/SA allocation stages;
	// the remainder models switch traversal and the deep physical pipeline.
	PipelineDepth int
}

// NewConfig returns the paper's router configuration for a given port
// count.
func NewConfig(ports int) Config {
	return Config{Ports: ports, VCs: 2, BufPerPort: 128, PipelineDepth: 13}
}

// Buffers and the output pipeline are allocated per port up front, so a
// config file asking for 10^12 of either must be an error, not an
// allocation. Both bounds are two orders of magnitude above the paper's
// router (128 buffers, 13 stages).
const (
	maxBufPerPort    = 1 << 14
	maxPipelineDepth = 1 << 10
)

// Validate reports whether the configuration is usable. The allocators
// arbitrate over bitmasks — input ports and per-port VCs in 32-bit words,
// global input VCs in a 64-bit word — so port and VC counts are bounded
// accordingly (the paper's largest router is 7-ported with 2 VCs).
func (c Config) Validate() error {
	switch {
	case c.Ports < 2:
		return fmt.Errorf("router: need >= 2 ports, got %d", c.Ports)
	case c.Ports > 32:
		return fmt.Errorf("router: mask allocators support <= 32 ports, got %d", c.Ports)
	case c.VCs < 1:
		return fmt.Errorf("router: need >= 1 VC, got %d", c.VCs)
	case c.Ports*c.VCs > 64:
		return fmt.Errorf("router: mask allocators support <= 64 total VCs, got %d*%d", c.Ports, c.VCs)
	case c.BufPerPort < c.VCs:
		return fmt.Errorf("router: %d buffers cannot cover %d VCs", c.BufPerPort, c.VCs)
	case c.BufPerPort > maxBufPerPort:
		return fmt.Errorf("router: %d buffers per port, the supported maximum is %d", c.BufPerPort, maxBufPerPort)
	case c.PipelineDepth < 4:
		return fmt.Errorf("router: pipeline depth %d < 4 (RC+VA+SA+ST)", c.PipelineDepth)
	case c.PipelineDepth > maxPipelineDepth:
		return fmt.Errorf("router: pipeline depth %d, the supported maximum is %d", c.PipelineDepth, maxPipelineDepth)
	}
	return nil
}

// BufPerVC reports the per-VC share of the input buffer.
func (c Config) BufPerVC() int { return c.BufPerPort / c.VCs }

// Router is one pipelined virtual-channel router. The network layer owns
// flit transport: it calls Arrive on input ports, Tick once per router
// cycle, and drains output-port tx queues onto links.
//
// All hot per-VC state lives in dense struct-of-arrays indexed by the
// global VC id g = port*VCs + vc, so a busy router's allocation cycle
// walks a handful of contiguous arrays instead of chasing per-VC heap
// objects. The allocator stages are incremental: candidates are enqueued
// on the state transitions that create them (flit arrival, VC grant, tail
// release), so per-cycle arbitration cost scales with actual requests —
// see rcList, vaSet and saMask below. A full-scan reference
// implementation of all three stages is retained behind Ref; the
// equivalence suite proves both paths byte-identical.
type Router struct {
	ID  int
	Cfg Config

	Inputs  []*InputPort
	Outputs []*OutputPort

	// RouteFn computes admissible outputs for a head flit's packet at this
	// router, appending to buf (which has capacity for the worst case);
	// the network installs it with topology and algorithm bound.
	RouteFn func(p *flow.Packet, buf []routing.MaskCandidate) []routing.MaskCandidate

	// Geometry, denormalized from Cfg for the hot loops. portOf[g] is the
	// port of global VC g (g / vcs, tabulated so no stage divides); txStages
	// is the post-crossbar pipeline depth in router cycles.
	ports    int
	vcs      int
	nvc      int // ports * vcs
	bufPerVC int
	portOf   []int32
	txStages sim.Duration

	// Input VC state, indexed by g. inBuf is one slab of per-VC ring
	// segments: VC g owns inBuf[g*bufPerVC : (g+1)*bufPerVC], a circular
	// buffer over inHead/inCount. cand is a slab of route-candidate
	// segments: VC g owns cand[g*ports : (g+1)*ports], of which the first
	// candN[g] entries are live. inOutPort/inOutVC are the allocated
	// output while the VC is active.
	inStage   []vcStage
	inHead    []int32
	inCount   []int32
	inOutPort []int32
	inOutVC   []int32
	inBuf     []bufEntry
	cand      []routing.MaskCandidate
	candN     []int32

	// Output VC state, indexed by g = port*VCs + vc: downstream credit
	// counts and wormhole ownership (the global input VC id holding the
	// output VC, or -1). infMask has bit p set when output port p models
	// an infinite sink (the ejection port).
	outCredits []int32
	outHeldBy  []int32
	infMask    uint32

	// Round-robin rotation pointers (see pick32/pick64): per input port
	// over its VCs (SA input stage), per output port over input ports (SA
	// output stage), per output VC over global input VCs (VA).
	inArbLast []int32
	saArbLast []int32
	vaArbLast []int32

	// Incremental allocator work-lists.
	//
	// rcList holds VCs that newly satisfy the RC predicate (idle with a
	// head flit at the front): pushed by Arrive on an empty idle VC and by
	// tail release exposing a queued next packet; drained every RC stage.
	//
	// vaSet is the persistent set of VCs in vcWaitingVC (swap-remove via
	// vaPos, -1 when absent). Membership changes only on RC promotion and
	// VA grant, so the VA stage iterates exactly the waiting VCs.
	//
	// saMask[p] has bit v set iff input VC p*VCs+v is vcActive with a
	// buffered flit — the SA eligibility predicate minus the credit check,
	// which is evaluated at pick time so credit returns need no re-arm.
	// saPorts aggregates the per-port masks (bit p set iff saMask[p] != 0)
	// so the SA stage visits only ports with candidates. Maintained by
	// saOn/saOff from Arrive, VA grant, and crossbar traversal.
	rcList  []int32
	vaSet   []int32
	vaPos   []int32
	saMask  []uint32
	saPorts uint32

	// Per-tick scratch, reused to keep the hot loop allocation-free:
	// vaReq[key] accumulates the VA request bitmap per output VC and
	// saReq[p] the SA request bitmap (nominating input ports) per output
	// port (both always zeroed again within their stage), scNominee the SA
	// input-stage winner per input port.
	vaReq     []uint64
	saReq     []uint32
	scNominee []int32

	// vaWaiting counts input VCs in the vcWaitingVC stage, so the VA stage
	// can bail out in one compare when nothing is waiting (the common case).
	vaWaiting int

	// Aggregate work counters, maintained by the ports through back
	// pointers: bufFlits totals buffered input flits across all ports,
	// txLink totals queued tx entries on link output ports, txLocal on the
	// local ejection port. They make Busy and the network's per-phase
	// early-outs O(1) instead of per-port sweeps. inOcc holds the per-port
	// buffered-flit counts in one dense array so the reference allocator
	// stages can skip idle ports without touching each InputPort; txMask
	// has bit 1<<port set while that output port has queued tx, so the
	// network's transmit phase visits only ports with work.
	bufFlits int
	txLink   int
	txLocal  int
	inOcc    []int
	txMask   uint32

	// Ref selects the retained full-scan reference allocators instead of
	// the work-list path. Both paths share the traversal, grant and RC
	// promotion bodies (which maintain the work-list structures either
	// way), and produce byte-identical simulations; the reference path
	// exists to prove that.
	Ref bool

	// Asserts enables in-pipeline legality checks (no grant without
	// request, no traversal without a downstream credit). Set by the
	// runtime invariant audit; off in normal runs so the hot loop stays
	// branch-cheap.
	Asserts bool

	// Counters for instrumentation and the router energy model.
	FlitsSwitched int64
	// Activity tallies every energy-bearing micro-event: buffer writes
	// (flit arrivals), buffer reads (flits leaving through the crossbar),
	// crossbar traversals and arbiter grants.
	Activity Activity
}

// Activity counts a router's energy-bearing events (see
// internal/power.RouterEnergyModel).
type Activity struct {
	BufWrites int64
	BufReads  int64
	Crossbar  int64
	ArbGrants int64
}

// Add accumulates another activity tally.
func (a *Activity) Add(b Activity) {
	a.BufWrites += b.BufWrites
	a.BufReads += b.BufReads
	a.Crossbar += b.Crossbar
	a.ArbGrants += b.ArbGrants
}

// New constructs a router. The ejection port (port 0) gets infinite
// credits: the paper assumes immediate ejection at the destination.
func New(id int, cfg Config) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Router{
		ID: id, Cfg: cfg,
		ports: cfg.Ports, vcs: cfg.VCs, nvc: cfg.Ports * cfg.VCs,
		bufPerVC: cfg.BufPerVC(),
		txStages: sim.Duration(cfg.PipelineDepth - 3),
	}
	n := r.nvc
	r.portOf = make([]int32, n)
	r.inStage = make([]vcStage, n)
	r.inHead = make([]int32, n)
	r.inCount = make([]int32, n)
	r.inOutPort = make([]int32, n)
	r.inOutVC = make([]int32, n)
	r.inBuf = make([]bufEntry, n*r.bufPerVC)
	r.cand = make([]routing.MaskCandidate, n*r.ports)
	r.candN = make([]int32, n)
	r.outCredits = make([]int32, n)
	r.outHeldBy = make([]int32, n)
	r.inArbLast = make([]int32, r.ports)
	r.saArbLast = make([]int32, r.ports)
	r.vaArbLast = make([]int32, n)
	r.rcList = make([]int32, 0, n)
	r.vaSet = make([]int32, 0, n)
	r.vaPos = make([]int32, n)
	r.saMask = make([]uint32, r.ports)
	r.vaReq = make([]uint64, n)
	r.saReq = make([]uint32, r.ports)
	r.scNominee = make([]int32, r.ports)
	r.inOcc = make([]int, r.ports)
	for g := 0; g < n; g++ {
		r.portOf[g] = int32(g / r.vcs)
		r.outCredits[g] = int32(r.bufPerVC)
		r.outHeldBy[g] = -1
		r.vaPos[g] = -1
		// Rotation pointers start at the top index so the first grant
		// wraps to requester 0.
		r.vaArbLast[g] = int32(n - 1)
	}
	r.infMask = 1 // ejection port 0
	for p := 0; p < r.ports; p++ {
		r.inArbLast[p] = int32(r.vcs - 1)
		r.saArbLast[p] = int32(r.ports - 1)
		txTotal := &r.txLink
		if p == 0 {
			txTotal = &r.txLocal
		}
		r.Inputs = append(r.Inputs, &InputPort{r: r, port: p})
		r.Outputs = append(r.Outputs, &OutputPort{
			r: r, port: p,
			infiniteCredits: p == 0,
			tx:              make([]TxEntry, 16),
			txTotal:         txTotal,
			portBit:         1 << uint(p),
			totalSlots:      cfg.VCs * r.bufPerVC,
		})
	}
	return r, nil
}

// SetCreditReturn installs the upstream credit path for one input port.
func (r *Router) SetCreditReturn(port int, fn func(vc int, now sim.Time)) {
	r.Inputs[port].creditFn = fn
}

// hasCredit reports whether output (port, vc) has a downstream slot.
func (r *Router) hasCredit(port, vc int) bool {
	return r.infMask>>uint(port)&1 != 0 || r.outCredits[port*r.vcs+vc] > 0
}

// Tick advances the router's allocation pipeline one cycle. Stages execute
// in reverse order (SA, then VA, then RC) so a flit needs one cycle per
// stage, as in a real pipeline. period is the router clock period.
func (r *Router) Tick(now sim.Time, period sim.Duration) {
	readyAt := now + r.txStages*period // when a flit switched now clears the output pipeline
	if r.Ref {
		r.refSwitchAllocation(now, readyAt)
		r.refVCAllocation()
		r.refRouteComputation()
		return
	}
	r.switchAllocation(now, readyAt)
	r.vcAllocation()
	r.routeComputation()
}

// Busy reports whether ticking the router could change any state: some
// input VC holds a flit or some output pipeline is draining. A router for
// which Busy is false ticks as a provable no-op — every allocator stage
// sees zero requests and touches nothing, including the round-robin
// arbiter pointers — so the network may skip it entirely. (An input VC in
// vcActive with an empty buffer, mid-packet, also ticks as a no-op; the
// arrival of its next body flit re-marks the router.)
func (r *Router) Busy() bool {
	return r.bufFlits > 0 || r.txLink > 0 || r.txLocal > 0
}

// LinkTxQueued reports the queued tx entries across link output ports, so
// the network's transmit phase can skip the whole router in one compare.
func (r *Router) LinkTxQueued() int { return r.txLink }

// BufferedFlits reports the flits currently held in input buffers across
// all ports — the occupancy the tile-parallel engine's lookahead extraction
// reads to find routers whose buffered traffic could reach a tile boundary.
func (r *Router) BufferedFlits() int { return r.bufFlits }

// TxPortMask reports the bitmask of output ports (bit 1<<port) with queued
// tx entries; the network's transmit phase iterates its set bits.
func (r *Router) TxPortMask() uint32 { return r.txMask }

// LocalTxQueued reports the queued tx entries on the local ejection port,
// so the network's eject phase can skip the router in one compare.
func (r *Router) LocalTxQueued() int { return r.txLocal }

// Work-list maintenance. The invariants:
//   - rcList holds every VC that became (vcIdle, non-empty) since the last
//     RC stage, exactly once;
//   - g ∈ vaSet  ⟺  inStage[g] == vcWaitingVC;
//   - saMask[g/vcs] bit g%vcs set  ⟺  inStage[g] == vcActive && inCount[g] > 0,
//     and saPorts bit p set ⟺ saMask[p] != 0.

func (r *Router) rcPush(g int) { r.rcList = append(r.rcList, int32(g)) }

func (r *Router) vaAdd(g int) {
	r.vaPos[g] = int32(len(r.vaSet))
	r.vaSet = append(r.vaSet, int32(g))
}

func (r *Router) vaRemove(g int) {
	i := r.vaPos[g]
	last := r.vaSet[len(r.vaSet)-1]
	r.vaSet[i] = last
	r.vaPos[last] = i
	r.vaSet = r.vaSet[:len(r.vaSet)-1]
	r.vaPos[g] = -1
}

func (r *Router) saOn(g int) {
	p := int(r.portOf[g])
	r.saMask[p] |= 1 << uint(g-p*r.vcs)
	r.saPorts |= 1 << uint(p)
}

func (r *Router) saOff(g int) {
	p := int(r.portOf[g])
	m := r.saMask[p] &^ (1 << uint(g-p*r.vcs))
	r.saMask[p] = m
	if m == 0 {
		r.saPorts &^= 1 << uint(p)
	}
}

// switchAllocation is the separable SA stage plus switch traversal:
// input-first round-robin among each port's eligible VCs, then output-side
// round-robin among competing input ports. Winners leave their input
// buffer, consume a downstream credit, return an upstream credit, and enter
// the output pipeline. Only ports flagged in saPorts are visited, and only
// their flagged VCs are credit-checked — the stage never scans idle state.
func (r *Router) switchAllocation(now, readyAt sim.Time) {
	if r.saPorts == 0 {
		return
	}
	nominee := r.scNominee // VC index per nominating input port
	var outWant uint32     // output ports targeted by at least one nominee
	for pm := r.saPorts; pm != 0; pm &= pm - 1 {
		i := bits.TrailingZeros32(pm)
		base := i * r.vcs
		var req uint32
		for vm := r.saMask[i]; vm != 0; vm &= vm - 1 {
			v := bits.TrailingZeros32(vm)
			g := base + v
			if r.hasCredit(int(r.inOutPort[g]), int(r.inOutVC[g])) {
				req |= 1 << uint(v)
			}
		}
		if req == 0 {
			continue
		}
		v := pick32(req, &r.inArbLast[i])
		if r.Asserts && req>>uint(v)&1 == 0 {
			panic(fmt.Sprintf("router %d: SA input arbiter granted port %d vc %d without a request", r.ID, i, v))
		}
		r.Activity.ArbGrants++
		nominee[i] = v
		p := r.inOutPort[base+int(v)]
		r.saReq[p] |= 1 << uint(i)
		outWant |= 1 << uint(p)
	}
	// Output stage: each output port with contenders grants one input port.
	// The request bitmaps were fixed by the input stage above, so the
	// traversals below (which flip saMask/saPorts bits on tail release and
	// streams running dry) cannot disturb the arbitration.
	for outWant != 0 {
		p := bits.TrailingZeros32(outWant)
		outWant &= outWant - 1
		outReq := r.saReq[p]
		r.saReq[p] = 0
		winner := pick32(outReq, &r.saArbLast[p])
		if r.Asserts && outReq>>uint(winner)&1 == 0 {
			panic(fmt.Sprintf("router %d: SA output arbiter granted port %d to input %d without a request", r.ID, p, winner))
		}
		r.Activity.ArbGrants++
		r.traverse(int(winner)*r.vcs+int(nominee[winner]), now, readyAt)
	}
}

// refSwitchAllocation is the reference SA stage: a full scan over every
// port and VC, mirroring the work-list path's arbitration exactly.
func (r *Router) refSwitchAllocation(now, readyAt sim.Time) {
	nominee := r.scNominee
	var outWant uint32
	anyNominee := false
	for i := 0; i < r.ports; i++ {
		nominee[i] = -1
		if r.inOcc[i] == 0 {
			continue
		}
		var req uint32
		for v := 0; v < r.vcs; v++ {
			g := i*r.vcs + v
			if r.inStage[g] == vcActive && r.inCount[g] > 0 &&
				r.hasCredit(int(r.inOutPort[g]), int(r.inOutVC[g])) {
				req |= 1 << uint(v)
			}
		}
		if req == 0 {
			continue
		}
		v := pick32(req, &r.inArbLast[i])
		if r.Asserts && req>>uint(v)&1 == 0 {
			panic(fmt.Sprintf("router %d: SA input arbiter granted port %d vc %d without a request", r.ID, i, v))
		}
		r.Activity.ArbGrants++
		nominee[i] = v
		outWant |= 1 << uint(r.inOutPort[i*r.vcs+int(v)])
		anyNominee = true
	}
	if !anyNominee {
		return
	}
	for outWant != 0 {
		p := bits.TrailingZeros32(outWant)
		outWant &= outWant - 1
		var outReq uint32
		for i := 0; i < r.ports; i++ {
			if nominee[i] >= 0 && int(r.inOutPort[i*r.vcs+int(nominee[i])]) == p {
				outReq |= 1 << uint(i)
			}
		}
		winner := pick32(outReq, &r.saArbLast[p])
		if r.Asserts && outReq>>uint(winner)&1 == 0 {
			panic(fmt.Sprintf("router %d: SA output arbiter granted port %d to input %d without a request", r.ID, p, winner))
		}
		r.Activity.ArbGrants++
		r.traverse(int(winner)*r.vcs+int(nominee[winner]), now, readyAt)
	}
}

// traverse moves the front flit of global input VC g through the crossbar;
// it clears the output pipeline at readyAt.
func (r *Router) traverse(g int, now, readyAt sim.Time) {
	i := int(r.portOf[g])
	in := r.Inputs[i]
	outPort, outVC := int(r.inOutPort[g]), int(r.inOutVC[g])
	out := r.Outputs[outPort]

	if r.Asserts && !out.hasCredit(outVC) {
		panic(fmt.Sprintf("router %d: traversal to port %d vc %d without a downstream credit", r.ID, outPort, outVC))
	}

	head := int(r.inHead[g])
	slot := g*r.bufPerVC + head
	e := r.inBuf[slot]
	r.inBuf[slot] = bufEntry{}
	if head++; head == r.bufPerVC {
		head = 0
	}
	r.inHead[g] = int32(head)
	cnt := int(r.inCount[g]) - 1
	r.inCount[g] = int32(cnt)
	r.inOcc[i]--
	r.bufFlits--
	f := e.flit
	inVC := f.VC // the VC the flit occupied here, for the upstream credit

	// Buffer-age instrumentation (Eq. 4).
	in.windowResidency += now - e.arrivedAt
	in.windowDeparted++

	// Downstream slot reservation and upstream slot release.
	out.takeCredit(outVC, now)
	if in.creditFn != nil {
		in.creditFn(inVC, now)
	}

	f.VC = outVC
	out.pushTx(TxEntry{flit: f, readyAt: readyAt})
	r.FlitsSwitched++
	r.Activity.BufReads++
	r.Activity.Crossbar++

	if f.Kind == flow.Tail {
		r.outHeldBy[outPort*r.vcs+outVC] = -1
		r.inStage[g] = vcIdle
		r.candN[g] = 0
		r.saOff(g)
		if cnt > 0 {
			// The next packet's head flit is already queued behind the
			// departed tail: the VC re-enters the RC stage.
			r.rcPush(g)
		}
	} else if cnt == 0 {
		r.saOff(g) // stream ran dry mid-packet; Arrive re-arms it
	}
}

// vcAllocation is the separable VA stage: each waiting input VC nominates
// its best free (output port, output VC) pair, then a per-output-VC
// round-robin arbiter grants among contenders. Only the VCs in vaSet — by
// invariant exactly those in vcWaitingVC — are examined.
func (r *Router) vcAllocation() {
	if r.vaWaiting == 0 {
		return
	}
	// Phase 1: nominations, against pre-grant state. vaSet order does not
	// matter — nominations are pure reads accumulated into request bitmaps.
	var keys uint64
	for _, g32 := range r.vaSet {
		g := int(g32)
		key, ok := r.nominate(g)
		if !ok {
			continue
		}
		r.vaReq[key] |= 1 << uint(g)
		keys |= 1 << uint(key)
	}
	// Phase 2: one grant per contended output VC, ascending key order.
	r.vaGrant(keys)
}

// refVCAllocation is the reference VA stage: a full scan for waiting VCs
// in (port, vc) order, sharing the grant phase with the work-list path.
func (r *Router) refVCAllocation() {
	if r.vaWaiting == 0 {
		return
	}
	var keys uint64
	for i := 0; i < r.ports; i++ {
		if r.inOcc[i] == 0 {
			// A waiting VC always holds at least its head flit, so an empty
			// port has nothing in the VA stage.
			continue
		}
		for v := 0; v < r.vcs; v++ {
			g := i*r.vcs + v
			if r.inStage[g] != vcWaitingVC {
				continue
			}
			key, ok := r.nominate(g)
			if !ok {
				continue
			}
			r.vaReq[key] |= 1 << uint(g)
			keys |= 1 << uint(key)
		}
	}
	r.vaGrant(keys)
}

// vaGrant resolves the VA request bitmaps for the output VCs flagged in
// keys, granting one waiting input VC each and clearing vaReq behind
// itself.
func (r *Router) vaGrant(keys uint64) {
	for keys != 0 {
		key := bits.TrailingZeros64(keys)
		keys &= keys - 1
		req := r.vaReq[key]
		r.vaReq[key] = 0
		g := int(pick64(req, &r.vaArbLast[key]))
		if r.Asserts && req>>uint(g)&1 == 0 {
			panic(fmt.Sprintf("router %d: VA arbiter granted output vc %d to input vc %d without a request", r.ID, key, g))
		}
		r.Activity.ArbGrants++
		r.inStage[g] = vcActive
		r.vaWaiting--
		r.vaRemove(g)
		p := r.portOf[key]
		r.inOutPort[g] = p
		r.inOutVC[g] = int32(key) - p*int32(r.vcs)
		r.outHeldBy[key] = int32(g)
		// A waiting VC holds at least its head flit, so it is SA-eligible
		// the moment it becomes active.
		r.saOn(g)
	}
}

// nominate picks the preferred free (output port, output VC) among a
// waiting VC's route candidates: the candidate output with the most
// downstream credits (adaptive congestion avoidance; ties and
// deterministic routes fall back to candidate order), and within it the
// first free admissible VC. The returned key is outPort*VCs + outVC.
func (r *Router) nominate(g int) (key int, ok bool) {
	bestScore := int32(-1)
	base := g * r.ports
	for c := 0; c < int(r.candN[g]); c++ {
		cand := r.cand[base+c]
		cbase := cand.Port * r.vcs
		inf := r.infMask>>uint(cand.Port)&1 != 0
		for m := cand.VCMask; m != 0; m &= m - 1 {
			ov := bits.TrailingZeros32(m)
			if r.outHeldBy[cbase+ov] >= 0 {
				continue
			}
			score := r.outCredits[cbase+ov]
			if inf {
				score = 1 << 30
			}
			if score > bestScore {
				bestScore = score
				key = cbase + ov
				ok = true
			}
			break // first free VC in admissible order is the port's offer
		}
	}
	return key, ok
}

// routeComputation is the RC stage: VCs that newly acquired a head flit at
// the front of an idle buffer — queued on rcList by Arrive and by tail
// release — compute their admissible outputs. List order does not matter:
// each promotion touches only its own VC's state.
func (r *Router) routeComputation() {
	for _, g32 := range r.rcList {
		g := int(g32)
		// A queued VC is promoted unless the transition was consumed
		// already (defensive; the enqueue rules fire exactly once per
		// transition into the idle+non-empty state).
		if r.inStage[g] != vcIdle || r.inCount[g] == 0 {
			continue
		}
		r.rcPromote(g)
	}
	r.rcList = r.rcList[:0]
}

// refRouteComputation is the reference RC stage: a full scan for idle
// non-empty VCs in (port, vc) order. It supersedes — and clears — rcList,
// which Arrive and traversal keep feeding either way.
func (r *Router) refRouteComputation() {
	for i := 0; i < r.ports; i++ {
		if r.inOcc[i] == 0 {
			continue
		}
		for v := 0; v < r.vcs; v++ {
			g := i*r.vcs + v
			if r.inStage[g] != vcIdle || r.inCount[g] == 0 {
				continue
			}
			r.rcPromote(g)
		}
	}
	r.rcList = r.rcList[:0]
}

// rcPromote runs route computation for one idle VC with a head flit at the
// front, moving it to the VA stage.
func (r *Router) rcPromote(g int) {
	f := r.inBuf[g*r.bufPerVC+int(r.inHead[g])].flit
	if f.Kind != flow.Head {
		panic(fmt.Sprintf("router %d: %v at front of idle VC", r.ID, f))
	}
	base := g * r.ports
	out := r.RouteFn(f.Packet, r.cand[base:base:base+r.ports])
	if len(out) == 0 {
		panic(fmt.Sprintf("router %d: no route for %v", r.ID, f))
	}
	if len(out) > r.ports {
		panic(fmt.Sprintf("router %d: %d route candidates overflow the per-VC segment", r.ID, len(out)))
	}
	r.candN[g] = int32(len(out))
	r.inStage[g] = vcWaitingVC
	r.vaWaiting++
	r.vaAdd(g)
}

// ActivitySnapshot reports the router's cumulative energy-bearing activity,
// folding per-port buffer writes into the tally.
func (r *Router) ActivitySnapshot() Activity {
	a := r.Activity
	for _, in := range r.Inputs {
		a.BufWrites += in.Writes
	}
	return a
}
