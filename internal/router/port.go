package router

import (
	"repro/internal/flow"
	"repro/internal/link"
	"repro/internal/sim"
)

// bufEntry is one buffered flit with its arrival instant, kept for the
// paper's input-buffer age measure (Eq. 4).
type bufEntry struct {
	flit      *flow.Flit
	arrivedAt sim.Time
}

// vcStage is the pipeline stage an input VC's front packet occupies.
type vcStage uint8

const (
	vcIdle      vcStage = iota // no packet being routed
	vcWaitingVC                // route computed, waiting for VC allocation
	vcActive                   // output VC held; flits stream through SA
)

// InputPort is the externally visible handle of one router input. The hot
// per-VC state — buffer rings, pipeline stages, allocation results — lives
// in the owning Router's dense struct-of-arrays (see Router), indexed by
// the global VC id port*VCs+vc; the handle carries only the per-port
// plumbing: the upstream credit path and the buffer-age instrumentation.
type InputPort struct {
	r    *Router
	port int

	// creditFn returns one credit to the upstream output port for vc; the
	// network installs it with the reverse channel's latency baked in. Nil
	// for injection ports (the source queue needs no credits).
	creditFn func(vc int, now sim.Time)

	// Buffer-age window accounting (Eq. 4).
	windowResidency sim.Duration
	windowDeparted  int

	// Writes counts buffered flits over the port's lifetime (for the
	// router energy model).
	Writes int64
}

// Free reports the free buffer slots of one VC.
func (p *InputPort) Free(vc int) int {
	return p.r.bufPerVC - int(p.r.inCount[p.port*p.r.vcs+vc])
}

// Occupied reports the total buffered flits across VCs.
func (p *InputPort) Occupied() int { return p.r.inOcc[p.port] }

// Arrive buffers a flit on its virtual channel at time now. The upstream
// router's credit accounting guarantees space; overflow is a protocol bug
// and panics. A flit landing on an empty VC is a state transition the
// incremental allocators track: it arms the RC work-list (idle VC, new
// head at the front) or the SA candidate mask (active VC, stream resumes).
func (p *InputPort) Arrive(f *flow.Flit, now sim.Time) {
	r := p.r
	g := p.port*r.vcs + f.VC
	cnt := int(r.inCount[g])
	if cnt >= r.bufPerVC {
		panic("router: input VC overflow — credit protocol violated")
	}
	slot := cnt + int(r.inHead[g])
	if slot >= r.bufPerVC {
		slot -= r.bufPerVC
	}
	r.inBuf[g*r.bufPerVC+slot] = bufEntry{flit: f, arrivedAt: now}
	r.inCount[g] = int32(cnt + 1)
	r.inOcc[p.port]++
	r.bufFlits++
	p.Writes++
	if cnt == 0 {
		switch r.inStage[g] {
		case vcIdle:
			r.rcPush(g)
		case vcActive:
			r.saOn(g)
		}
	}
}

// TakeAgeWindow returns (sum of residencies, departures) accumulated since
// the last call and resets the window.
func (p *InputPort) TakeAgeWindow() (sim.Duration, int) {
	r, n := p.windowResidency, p.windowDeparted
	p.windowResidency, p.windowDeparted = 0, 0
	return r, n
}

// TxEntry is a flit that has traversed the crossbar and is progressing
// through the router's output pipeline toward the link.
type TxEntry struct {
	flit    *flow.Flit
	readyAt sim.Time
}

// Flit reports the entry's flit.
func (e TxEntry) Flit() *flow.Flit { return e.flit }

// ReadyAt reports when the flit clears the output pipeline and may enter
// the link.
func (e TxEntry) ReadyAt() sim.Time { return e.readyAt }

// OutputPort is the externally visible handle of one router output. The
// per-VC credit counters and wormhole ownership live in the owning
// Router's dense arrays; the handle keeps the per-port machinery: the DVS
// link (nil for the ejection port), the post-crossbar pipeline queue as a
// fixed ring, and the occupancy integral behind the paper's
// buffer-utilization measure.
type OutputPort struct {
	r    *Router
	port int

	Link *link.DVSLink // nil for ejection or unconnected ports

	infiniteCredits bool // ejection port: the sink always accepts

	// tx is the output pipeline as a power-of-two ring (head/count over a
	// reused backing array), grown only when the queue reaches a new
	// high-water mark — steady-state traversal does no slice appends.
	tx      []TxEntry
	txHead  int
	txCount int
	// txTotal points at the owning router's queued-tx counter for this
	// port class (link ports vs the local ejection port), so the network
	// can skip the whole transmit or eject phase in one compare. portBit
	// is this port's bit in the router's queued-tx port mask.
	txTotal *int
	portBit uint32

	// Downstream buffer occupancy (capacity - credits) integrated over
	// time; BU = integral / (slots * window).
	totalSlots  int
	occupied    int
	occIntegral sim.Duration
	lastOccAt   sim.Time
}

// hasCredit reports whether one downstream slot is available on vc.
func (p *OutputPort) hasCredit(vc int) bool {
	return p.infiniteCredits || p.r.outCredits[p.port*p.r.vcs+vc] > 0
}

// takeCredit consumes one downstream slot on vc at time now.
func (p *OutputPort) takeCredit(vc int, now sim.Time) {
	if p.infiniteCredits {
		return
	}
	p.r.outCredits[p.port*p.r.vcs+vc]--
	p.noteOccupancy(now, +1)
}

// ReturnCredit restores one downstream slot on vc at time now. It is
// exported because credits arrive via network-scheduled events. Credit
// arrival needs no allocator work-list update: eligibility for switch
// allocation is re-checked against the credit counters at pick time, so a
// returned credit is visible to the very next SA stage.
func (p *OutputPort) ReturnCredit(vc int, now sim.Time) {
	if p.infiniteCredits {
		return
	}
	p.r.outCredits[p.port*p.r.vcs+vc]++
	p.noteOccupancy(now, -1)
}

func (p *OutputPort) noteOccupancy(now sim.Time, delta int) {
	if now > p.lastOccAt {
		p.occIntegral += sim.Duration(p.occupied) * (now - p.lastOccAt)
		p.lastOccAt = now
	}
	p.occupied += delta
}

// TakeOccupancyIntegral returns the occupancy integral (slot-picoseconds)
// accumulated since the last call, accrued through now, and resets it.
func (p *OutputPort) TakeOccupancyIntegral(now sim.Time) sim.Duration {
	p.noteOccupancy(now, 0)
	v := p.occIntegral
	p.occIntegral = 0
	return v
}

// TotalSlots reports the downstream buffer capacity this port tracks.
func (p *OutputPort) TotalSlots() int { return p.totalSlots }

// Occupied reports the instantaneous downstream occupancy estimate.
func (p *OutputPort) OccupiedSlots() int { return p.occupied }

// pushTx appends one entry to the output pipeline ring.
func (p *OutputPort) pushTx(e TxEntry) {
	if p.txCount == len(p.tx) {
		p.growTx()
	}
	p.tx[(p.txHead+p.txCount)&(len(p.tx)-1)] = e
	p.txCount++
	*p.txTotal++
	p.r.txMask |= p.portBit
}

// growTx doubles the ring, re-linearizing the queue at index 0.
func (p *OutputPort) growTx() {
	grown := make([]TxEntry, 2*len(p.tx))
	for i := 0; i < p.txCount; i++ {
		grown[i] = p.tx[(p.txHead+i)&(len(p.tx)-1)]
	}
	p.tx = grown
	p.txHead = 0
}

// QueuedTx reports the flits waiting in the output pipeline.
func (p *OutputPort) QueuedTx() int { return p.txCount }

// TxFront reports the front entry; the queue must be non-empty.
func (p *OutputPort) TxFront() TxEntry { return p.tx[p.txHead] }

// TxAt reports the i-th queued entry, front first.
func (p *OutputPort) TxAt(i int) TxEntry {
	return p.tx[(p.txHead+i)&(len(p.tx)-1)]
}

// ForEachTx walks the queued entries front to back.
func (p *OutputPort) ForEachTx(fn func(e TxEntry)) {
	for i := 0; i < p.txCount; i++ {
		fn(p.tx[(p.txHead+i)&(len(p.tx)-1)])
	}
}

// PopTx removes and returns the front entry.
func (p *OutputPort) PopTx() TxEntry {
	e := p.tx[p.txHead]
	p.tx[p.txHead] = TxEntry{}
	p.txHead = (p.txHead + 1) & (len(p.tx) - 1)
	p.txCount--
	*p.txTotal--
	if p.txCount == 0 {
		p.r.txMask &^= p.portBit
	}
	return e
}

// VCStage is the externally visible pipeline stage of an input VC's front
// packet, exposed for the runtime invariant audit (internal/audit).
type VCStage uint8

const (
	VCIdle      = VCStage(vcIdle)      // no packet being routed
	VCWaitingVC = VCStage(vcWaitingVC) // route computed, awaiting VC allocation
	VCActive    = VCStage(vcActive)    // output VC held; flits stream through SA
)

func (s VCStage) String() string {
	switch s {
	case VCIdle:
		return "idle"
	case VCWaitingVC:
		return "waiting-vc"
	case VCActive:
		return "active"
	}
	return "invalid"
}

// The accessors below are read-only views for the invariant audit's
// structural scans; simulation code must not depend on them.

// VCs reports the number of virtual channels on the port.
func (p *InputPort) VCs() int { return p.r.vcs }

// BufPerVC reports the per-VC buffer capacity.
func (p *InputPort) BufPerVC() int { return p.r.bufPerVC }

// OccupiedVC reports the buffered flit count of one VC.
func (p *InputPort) OccupiedVC(vc int) int {
	return int(p.r.inCount[p.port*p.r.vcs+vc])
}

// VCState reports the allocation state of one input VC: its pipeline
// stage, the output (port, VC) it holds when active, and how many route
// candidates it carries.
func (p *InputPort) VCState(vc int) (stage VCStage, outPort, outVC, candidates int) {
	r := p.r
	g := p.port*r.vcs + vc
	return VCStage(r.inStage[g]), int(r.inOutPort[g]), int(r.inOutVC[g]), int(r.candN[g])
}

// ForEachFlit walks the buffered flits of one VC front to back.
func (p *InputPort) ForEachFlit(vc int, fn func(f *flow.Flit)) {
	r := p.r
	g := p.port*r.vcs + vc
	base, head, cnt := g*r.bufPerVC, int(r.inHead[g]), int(r.inCount[g])
	for i := 0; i < cnt; i++ {
		slot := head + i
		if slot >= r.bufPerVC {
			slot -= r.bufPerVC
		}
		fn(r.inBuf[base+slot].flit)
	}
}

// VCs reports the number of virtual channels on the port.
func (p *OutputPort) VCs() int { return p.r.vcs }

// Credits reports the downstream credit count of one VC.
func (p *OutputPort) Credits(vc int) int {
	return int(p.r.outCredits[p.port*p.r.vcs+vc])
}

// Held reports whether one output VC is owned by a packet and, if so, the
// input (port, VC) streaming through it.
func (p *OutputPort) Held(vc int) (held bool, inPort, inVC int) {
	g := p.r.outHeldBy[p.port*p.r.vcs+vc]
	if g < 0 {
		return false, 0, 0
	}
	return true, int(g) / p.r.vcs, int(g) % p.r.vcs
}

// DropCreditForTest silently discards one downstream credit on vc — a
// deliberate flow-control fault used to prove the audit's credit
// conservation scan catches real protocol corruption. Never called by
// simulation code.
func (p *OutputPort) DropCreditForTest(vc int) {
	p.r.outCredits[p.port*p.r.vcs+vc]--
}
