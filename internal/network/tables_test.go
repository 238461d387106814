package network

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// TestChanEnds pins the construction-time channel table against the
// topology arithmetic transmitNode used to redo on every flit-hop.
func TestChanEnds(t *testing.T) {
	for _, shape := range []struct {
		k, n  int
		torus bool
	}{{4, 2, false}, {4, 2, true}, {3, 3, false}} {
		cfg := NewConfig()
		cfg.K, cfg.N, cfg.Torus = shape.k, shape.n, shape.torus
		cfg.Router.Ports = 1 + 2*shape.n
		net := mustNew(t, cfg)
		topo, ports := net.Topo, cfg.Router.Ports
		if len(net.chanEnds) != topo.Nodes()*ports {
			t.Fatalf("%+v: %d channel ends, want %d", shape, len(net.chanEnds), topo.Nodes()*ports)
		}
		connected := 0
		for node := 0; node < topo.Nodes(); node++ {
			if got := net.chanEnds[node*ports+topology.LocalPort]; got != (chanEnd{}) {
				t.Errorf("%+v node %d: local port has a channel end %+v", shape, node, got)
			}
			for port := 1; port < ports; port++ {
				got := net.chanEnds[node*ports+port]
				dim, dir := topo.DimDir(port)
				dst, ok := topo.Neighbor(node, dim, dir)
				if !ok {
					if got != (chanEnd{}) || net.linkAt[node][port] != nil {
						t.Errorf("%+v node %d port %d: unconnected edge port has %+v", shape, node, port, got)
					}
					continue
				}
				connected++
				cx := topo.Coord(node, dim)
				want := chanEnd{
					in:   net.Routers[dst].Inputs[topo.PortFor(dim, 1-dir)],
					node: dst,
					dim:  dim,
					wrap: topo.Torus() && ((dir == topology.Plus && cx == topo.K()-1) ||
						(dir == topology.Minus && cx == 0)),
				}
				if got != want {
					t.Errorf("%+v node %d port %d: channel end %+v, want %+v", shape, node, port, got, want)
				}
			}
		}
		if connected != len(net.Links()) {
			t.Errorf("%+v: %d connected ends, %d links", shape, connected, len(net.Links()))
		}
	}
}

// TestLevelCycles pins the per-level delay table against the division it
// replaces: a message sent on the edge of any cycle over a link at any
// level is due exactly where dueCycle puts its arrival instant — also when
// the router clock does not divide the link periods — and sizes the message
// ring as the smallest power of two above the longest delay, also when that
// delay outgrows the paper table's 16 slots.
func TestLevelCycles(t *testing.T) {
	for _, rp := range []sim.Duration{sim.Nanosecond, 700, 1500, 100} {
		cfg := smallConfig(PolicyNone)
		cfg.RouterPeriod = rp
		n := mustNew(t, cfg)
		if len(n.lvlCycles) != len(n.Table.Period) {
			t.Fatalf("router period %v: %d level delays for %d levels", rp, len(n.lvlCycles), len(n.Table.Period))
		}
		longest, size := slices.Max(n.lvlCycles), int64(len(n.ring))
		if size <= longest || size > 2*longest || size&(size-1) != 0 || n.ringMask != size-1 {
			t.Errorf("router period %v: %d-slot ring (mask %d) for a %d-cycle longest delay", rp, size, n.ringMask, longest)
		}
		if rp == sim.Nanosecond && size != 16 {
			t.Errorf("paper platform: %d-slot ring, want 16", size)
		}
		for lvl, period := range n.Table.Period {
			if n.lvlCycles[lvl] < 1 {
				t.Errorf("router period %v level %d: delay %d cycles", rp, lvl, n.lvlCycles[lvl])
			}
			for _, cycle := range []int64{0, 1, 7, 63, 64, 65, 1_000, 999_983, 123_456_789} {
				now := sim.Time(cycle) * rp
				if got, want := cycle+n.lvlCycles[lvl], n.dueCycle(now+period); got != want {
					t.Errorf("router period %v level %d cycle %d: due %d, dueCycle says %d", rp, lvl, cycle, got, want)
				}
			}
		}
	}

	// With a 10 GHz router clock the slowest level spans 80 router cycles,
	// beyond the paper table's 16-slot ring and the 64-cycle wake wheel:
	// the ring must outgrow it, hold every flit and credit in flight, and
	// still deliver — audited, so the conservation scans see them in
	// transit.
	t.Run("beyond-ring", func(t *testing.T) {
		cfg := smallConfig(PolicyNone)
		cfg.RouterPeriod = 100
		cfg.StartLevel = 0
		cfg.Audit.Enabled = true
		n := mustNew(t, cfg)
		if d := n.lvlCycles[0]; d != 80 || len(n.ring) != 128 {
			t.Fatalf("bottom level spans %d cycles on a %d-slot ring, want 80 on 128", d, len(n.ring))
		}
		n.BeginMeasurement()
		n.Inject(0, 5, 0, -1) // (0,0) -> (1,1): two link crossings
		sawArrival, sawCredit := false, false
		for i := 0; i < 2_000 && n.InFlight > 0; i++ {
			if why := ringHoldsAll(n); why != "" {
				t.Fatalf("cycle %d: %s", n.Cycle(), why)
			}
			n.Step()
			for _, b := range n.ring {
				sawArrival = sawArrival || len(b.arrivals) != 0
				sawCredit = sawCredit || len(b.credits) != 0
			}
		}
		if !sawArrival || !sawCredit {
			t.Errorf("ring never held a message: arrival=%v credit=%v", sawArrival, sawCredit)
		}
		n.Run(200) // let the last credits land
		if got := n.Snapshot().DeliveredPkts; got != 1 || n.InFlight != 0 || n.ringCount != 0 {
			t.Errorf("delivered %d, in flight %d, %d ring messages left", got, n.InFlight, n.ringCount)
		}
		if v := n.Auditor().Stats().Violations; v != 0 {
			t.Errorf("%d audit violations", v)
		}
	})
}

// ringHoldsAll reports why the ring might not hold every message in flight
// ("" when it does): the buckets must add up to ringCount, and on a
// platform with no traffic model and no DVS policy the scheduler must be
// empty.
func ringHoldsAll(n *Network) string {
	held := 0
	for _, b := range n.ring {
		held += len(b.arrivals) + len(b.credits)
	}
	if held != n.ringCount {
		return fmt.Sprintf("ring buckets hold %d messages, ringCount says %d", held, n.ringCount)
	}
	if p := n.Sched.Pending(); p != 0 {
		return fmt.Sprintf("%d events pending on the scheduler", p)
	}
	return ""
}

// TestRestoreRejectsRingSlotPastRing: a snapshot naming a ring bucket at or
// past the ring's length — 64 was a valid slot before the ring was sized
// from the link table — is refused with an error, not a panic.
func TestRestoreRejectsRingSlotPastRing(t *testing.T) {
	cfg := smallConfig(PolicyNone)
	n := mustNew(t, cfg)
	n.Inject(0, 15, 0, -1)
	var st *CheckpointState
	for i := 0; i < 200 && (st == nil || len(st.RingArrivals) == 0 || len(st.RingCredits) == 0); i++ {
		n.Step()
		var err error
		if st, err = n.CaptureCheckpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if len(st.RingArrivals) == 0 || len(st.RingCredits) == 0 {
		t.Fatalf("no capture held both ring arrivals and ring credits")
	}
	for _, slot := range []int32{int32(len(n.ring)), 64} {
		for _, kind := range []string{"arrival", "credit"} {
			bad := *st
			bad.RingArrivals = append([]RingArrival(nil), st.RingArrivals...)
			bad.RingCredits = append([]RingCredit(nil), st.RingCredits...)
			if kind == "arrival" {
				bad.RingArrivals[0].Slot = slot
			} else {
				bad.RingCredits[0].Slot = slot
			}
			err := mustNew(t, cfg).RestoreCheckpoint(&bad, nil)
			if err == nil || !strings.Contains(err.Error(), "slot") {
				t.Errorf("ring %s in slot %d of %d: restore returned %v", kind, slot, len(n.ring), err)
			}
		}
	}
}
