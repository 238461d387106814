package network

import (
	"math"
	"testing"

	"repro/internal/flow"
	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Closed-form anchors: where the simulator's behaviour is plain arithmetic
// over its parameters, it must equal that arithmetic exactly. A failing
// anchor is a bug in the simulator or in the derivation, never a tolerance
// to widen. EXPERIMENTS.md notes 2 and 3 quote these numbers.

// zeroLoadLatency is the latency, in router cycles, of one packet alone on
// the platform with every link at level lvl, hops channels from its source
// (DOR, so no other packet or VC contends). Derived from the code:
//
//   - A head flit arriving at a router on cycle a is route-computed on a,
//     wins VC allocation on a+1 and crosses the crossbar on a+2 (Tick runs
//     SA, VA, RC in reverse order, one stage per cycle). It then spends
//     depth-3 cycles in the output pipeline and leaves on a+depth-1, and
//     the link delivers it d = lvlCycles[lvl] cycles later. So each hop
//     costs depth-1+d, and the source's injection of the head on cycle 0
//     is such an arrival.
//   - The source injects one flit per cycle. A link moves one flit every d
//     cycles, so the flits reach every downstream router d cycles apart.
//   - At the destination the tail crosses the crossbar on the later of
//     arriving, (F-1)·d cycles after the head, and of following the head's
//     crossing on a+2 one flit per cycle, F-1 cycles later. It is ejected
//     depth-3 cycles after that.
func zeroLoadLatency(n *Network, lvl, hops int) int64 {
	depth := int64(n.Cfg.Router.PipelineDepth)
	d := n.lvlCycles[lvl]
	const f = flow.FlitsPerPacket
	return int64(hops)*(depth-1+d) + max((f-1)*d, 2+f-1) + depth - 3
}

// TestZeroLoadLatencyClosedForm (ROADMAP D.2) sends one packet per distance
// across the 8x8 mesh and a 4x4 torus with every link pinned at each level in
// turn, and requires every latency to equal zeroLoadLatency: under the
// sleeping core, on the tick-everything core (useNoSkip), and once under the
// audit.
func TestZeroLoadLatencyClosedForm(t *testing.T) {
	levels := NewConfig().Link.Levels
	for _, plat := range []struct {
		name   string
		mutate func(*Config)
	}{{"mesh8x8", func(*Config) {}}, {"torus4x4", torus4x4}} {
		for lvl := 0; lvl < levels; lvl++ {
			for _, mode := range []string{"sleep", "noskip", "audit"} {
				if mode == "audit" && (lvl != 0 || plat.name != "mesh8x8") {
					continue
				}
				cfg := NewConfig()
				cfg.Policy = PolicyNone
				cfg.StartLevel = lvl
				cfg.Audit.Enabled = mode == "audit"
				plat.mutate(&cfg)
				n := mustNew(t, cfg)
				if mode == "noskip" {
					useNoSkip(t, n)
				}
				// A one-event ring: after the run it holds the packet's
				// delivery, which carries its latency, or else its injection.
				n.Trace = trace.NewBuffer(1, -1)
				for h := 1; h <= n.Topo.MaxDistance(); h++ {
					n.Inject(0, n.Topo.NodesAtDistance(0, h)[0], sim.Time(n.Cycle())*cfg.RouterPeriod, -1)
					for i := 0; i < 1_000 && n.InFlight > 0; i++ {
						n.Run(1)
					}
					var got sim.Duration
					if e := n.Trace.Events()[0]; e.Kind == trace.PacketDelivered {
						got = sim.Duration(e.C)
					}
					if want := zeroLoadLatency(n, lvl, h); got != sim.Duration(want)*cfg.RouterPeriod {
						t.Errorf("%s/level=%d/%s: %d hops took %v, closed form %d cycles", plat.name, lvl, mode, h, got, want)
					}
				}
				if a := n.Auditor(); a != nil && a.Stats().Violations != 0 {
					t.Errorf("%s/level=%d: %d audit violations", plat.name, lvl, a.Stats().Violations)
				}
			}
		}
	}
	// EXPERIMENTS note 2: a 3-hop packet takes 55 cycles with links at the
	// top level and 102 at the bottom (125 MHz), 47 more.
	n := mustNew(t, NewConfig())
	if top, bottom := zeroLoadLatency(n, n.Table.Top(), 3), zeroLoadLatency(n, 0, 3); top != 55 || bottom != 102 {
		t.Errorf("3-hop zero-load latency %d cycles at the top level and %d at the bottom; EXPERIMENTS note 2 says 55 and 102", top, bottom)
	}
}

// descentStep is one level step of a link: the instant the policy requests
// it, the instant the receiver's frequency lock ends (the link runs at the
// new level from then on), and the instant the voltage ramp ends.
type descentStep struct{ req, locked, ramped sim.Time }

// TestDescentClosedForm (ROADMAP D.4): with no traffic under the history
// policy every link walks from the top level to the bottom in nine steps,
// and every instant of every step equals the closed form. A window closes
// on the Step of each cycle c with (c+1) % H == 0, at instant c·period; at
// zero load each close decides Lower. A step down locks the receiver for
// FreqTransitionCycles·Period[target], then ramps the voltage for
// VoltTransition. The next step is requested on the first window close at
// or after the ramp ends, since a link refuses requests mid-transition and
// the ramp's completion event runs before that cycle's policies.
func TestDescentClosedForm(t *testing.T) {
	cfg := NewConfig()
	n := mustNew(t, cfg)
	p, h := cfg.RouterPeriod, int64(cfg.DVS.H)
	var want []descentStep
	req := sim.Time(h-1) * p
	for lvl := n.Table.Top() - 1; lvl >= 0; lvl-- {
		locked := req + sim.Duration(cfg.Link.FreqTransitionCycles)*n.Table.Period[lvl]
		ramped := locked + cfg.Link.VoltTransition
		want = append(want, descentStep{req, locked, ramped})
		firstCycle := int64((ramped + p - 1) / p) // first cycle edge at or after the ramp's end
		req = sim.Time((firstCycle+h)/h*h-1) * p
	}

	links := n.Links()
	var got []descentStep
	prevLevel, prevState := links[0].Level(), links[0].State()
	for n.Cycle() < 120_000 && !(prevLevel == 0 && prevState == link.Functional) {
		n.Run(1)
		l := links[0]
		level, state := l.Level(), l.State()
		for i, o := range links {
			if o.Level() != level || o.State() != state {
				t.Fatalf("cycle %d: link %d at level %d %v, link 0 at level %d %v", n.Cycle(), i, o.Level(), o.State(), level, state)
			}
		}
		switch {
		case state == link.FreqLocking && prevState == link.Functional:
			got = append(got, descentStep{req: n.Now(), locked: l.Checkpoint().PendAt})
		case level != prevLevel:
			got[len(got)-1].ramped = l.Checkpoint().PendAt
		}
		prevLevel, prevState = level, state
	}
	if len(got) != len(want) || prevLevel != 0 || prevState != link.Functional {
		t.Fatalf("%d steps ending at level %d %v; want %d steps to level 0", len(got), prevLevel, prevState, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("step %d: got %+v, closed form %+v", i+1, got[i], want[i])
		}
	}
	// EXPERIMENTS note 3: nine steps, each 10.2 to 10.8 µs from request to
	// request, the last ramp ending 93.4 µs after power-on.
	if len(want) != 9 || want[8].ramped != 93_399*sim.Nanosecond {
		t.Errorf("%d steps, last ramp ends at %v; EXPERIMENTS note 3 says 9 and 93.399 µs", len(want), want[len(want)-1].ramped)
	}
	for i := 1; i < len(want); i++ {
		if d := want[i].req - want[i-1].req; d < 10_200*sim.Nanosecond || d > 10_800*sim.Nanosecond {
			t.Errorf("step %d lasts %v; EXPERIMENTS note 3 says 10.2 to 10.8 µs", i, d)
		}
	}
}

// TestPowerCeilingClosedForm (ROADMAP D.1): with every link held at the
// bottom level under load, the savings factor is the top level's channel
// power over the bottom level's, 200/23.6 mW per serial link: the 8.5X
// ceiling EXPERIMENTS.md cites.
func TestPowerCeilingClosedForm(t *testing.T) {
	const cycles = 4_000
	cfg := NewConfig()
	cfg.Policy = PolicyNone
	cfg.StartLevel = 0
	n := mustNew(t, cfg)
	m, err := traffic.NewTwoLevel(traffic.NewTwoLevelParams(1.0), n.Topo)
	if err != nil {
		t.Fatal(err)
	}
	n.Launch(m, sim.Time(2*cycles+1)*cfg.RouterPeriod)
	n.Run(cycles)
	n.BeginMeasurement()
	n.Run(cycles)
	for i, l := range n.Links() {
		if l.Level() != 0 || l.StatsAt(n.Now()).Transitions != 0 {
			t.Fatalf("link %d left level 0: now at %d", i, l.Level())
		}
	}
	res := n.Snapshot()
	want := cfg.Link.MaxPowerW / cfg.Link.MinPowerW
	if res.DeliveredPkts == 0 || math.Abs(res.SavingsX-want) > 1e-12*want {
		t.Errorf("%d packets delivered, savings %.15gX; closed form %.15gX", res.DeliveredPkts, res.SavingsX, want)
	}
	if math.Round(100*want) != 847 {
		t.Errorf("ceiling %.4gX; EXPERIMENTS.md says 8.47X", want)
	}
}

// TestTransitionCostClosedForm (ROADMAP D.2): one level step, down from the
// top and back up, keeps the link dead for exactly 100 cycles of the target
// level's clock and books exactly the Stratakos regulator energy
// (1-eta)*C*|V2^2-V1^2| with C = 5 uF and eta = 0.9, once per step.
func TestTransitionCostClosedForm(t *testing.T) {
	cfg := NewConfig()
	cfg.Policy = PolicyNone
	n := mustNew(t, cfg)
	l, top := n.Links()[0], n.Table.Top()
	volt := func(lvl int) float64 {
		return cfg.Link.MinVolt + float64(lvl)/float64(top)*(cfg.Link.MaxVolt-cfg.Link.MinVolt)
	}
	for i, step := range []struct {
		up       bool
		from, to int
	}{{false, top, top - 1}, {true, top - 1, top}} {
		before := l.StatsAt(n.Now())
		l.TakeUtilization(n.Now())
		if !l.RequestStep(n.Now(), step.up) {
			t.Fatalf("step %d refused", i)
		}
		n.Run(20_000)
		if l.Transitioning() || l.Level() != step.to {
			t.Fatalf("step %d: link at level %d (%v) after 20 µs, want %d", i, l.Level(), l.State(), step.to)
		}
		if _, dead := l.TakeUtilization(n.Now()); dead != 100*n.Table.Period[step.to] {
			t.Errorf("step %d: dead %v, want 100 cycles of %v", i, dead, n.Table.Period[step.to])
		}
		v1, v2 := volt(step.from), volt(step.to)
		want := before.TransitionEnergy + (1-0.9)*5e-6*math.Abs(v2*v2-v1*v1)
		if after := l.StatsAt(n.Now()); after.TransitionEnergy != want || after.Transitions != before.Transitions+1 {
			t.Errorf("step %d: transition energy %.17g J over %d transitions; closed form %.17g J over %d",
				i, after.TransitionEnergy, after.Transitions, want, before.Transitions+1)
		}
	}
}
