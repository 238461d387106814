package network

import (
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
// the router clock does not divide the link periods, and when a level spans
// more cycles than the ring holds.
func TestLevelCycles(t *testing.T) {
	for _, rp := range []sim.Duration{sim.Nanosecond, 700, 1500, 100} {
		cfg := smallConfig(PolicyNone)
		cfg.RouterPeriod = rp
		n := mustNew(t, cfg)
		if len(n.lvlCycles) != len(n.Table.Period) {
			t.Fatalf("router period %v: %d level delays for %d levels", rp, len(n.lvlCycles), len(n.Table.Period))
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
	// past the 64-cycle ring: flits and credits must take the scheduler
	// fallback at their exact instants, stay visible in n.slow while
	// pending, and still deliver — audited, so the conservation scans see
	// them in transit.
	t.Run("beyond-ring", func(t *testing.T) {
		cfg := smallConfig(PolicyNone)
		cfg.RouterPeriod = 100
		cfg.StartLevel = 0
		cfg.Audit.Enabled = true
		n := mustNew(t, cfg)
		if d := n.lvlCycles[0]; d < ringSize {
			t.Fatalf("bottom level spans %d cycles, want >= %d", d, ringSize)
		}
		n.BeginMeasurement()
		n.Inject(0, 5, 0, -1) // (0,0) -> (1,1): two link crossings
		sawArrival, sawCredit := false, false
		for i := 0; i < 2_000 && n.InFlight > 0; i++ {
			n.Step()
			for _, e := range n.slow {
				if e.in != nil {
					sawArrival = true
				} else {
					sawCredit = true
				}
				// Sent on a cycle edge, due one bottom-level period later.
				if (e.at-n.Table.Period[0])%cfg.RouterPeriod != 0 {
					t.Fatalf("slow message due at %v: not a cycle edge plus the link period", e.at)
				}
			}
		}
		if !sawArrival || !sawCredit {
			t.Errorf("slow path not taken: arrival=%v credit=%v", sawArrival, sawCredit)
		}
		if n.ringCount != 0 {
			t.Errorf("%d messages on the ring; every delay exceeds its span", n.ringCount)
		}
		n.Run(200) // let the last credits land
		if got := n.Snapshot().DeliveredPkts; got != 1 || n.InFlight != 0 || len(n.slow) != 0 {
			t.Errorf("delivered %d, in flight %d, %d slow messages left", got, n.InFlight, len(n.slow))
		}
		if v := n.Auditor().Stats().Violations; v != 0 {
			t.Errorf("%d audit violations", v)
		}
	})
}
