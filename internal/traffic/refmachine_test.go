package traffic

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// refMachine is the two-level generator as one plain event heap: every
// spawn, ON toggle, OFF toggle and emission is a queued event ordered by
// (at, seq), seq following arming order. It draws from the same streams in
// the same order as machine and is kept as the oracle machine's
// arming-order keys must reproduce (TestMachineMatchesReference,
// FuzzMachineMatchesReference).
type refMachine struct {
	m        *TwoLevel
	horizon  sim.Time
	rng      sim.RNG
	meanGap  float64
	nextTask int64
	seq      int64
	queue    []refEvent // 4-ary min-heap on (at, seq)
	slab     []refSource
	free     []int32
}

// Reference machine event kinds.
const (
	refSpawn int32 = iota // the Poisson spawner starts a session
	refOn                 // a source's OFF period ends
	refOff                // a source's ON period ends
	refEmit               // a source emits one packet
)

type refEvent struct {
	at   sim.Time
	seq  int64
	src  int32
	kind int32
}

func (a *refEvent) less(b *refEvent) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

type refSource struct {
	rng     sim.RNG
	node    int32
	pending int32
	task    int64
	gap     sim.Duration
	end     sim.Time
	onEnd   sim.Time
}

func refStart(m *TwoLevel, now, horizon sim.Time) *refMachine {
	g := &refMachine{m: m, horizon: horizon,
		meanGap: float64(m.P.AvgTaskDuration) / float64(m.P.AvgTasks)}
	g.rng.Seed(m.P.Seed)
	for i := 0; i < m.P.AvgTasks; i++ {
		g.startTask(now, true)
	}
	if first := now + sim.Time(g.rng.Exp(g.meanGap)); first <= horizon {
		g.push(first, -1, refSpawn)
	}
	return g
}

func (g *refMachine) next() (a Arrival, ok bool) {
	for len(g.queue) > 0 && !ok {
		ev := g.pop()
		switch ev.kind {
		case refSpawn:
			g.startTask(ev.at, false)
			if next := ev.at + sim.Time(g.rng.Exp(g.meanGap)); next <= g.horizon {
				g.push(next, -1, refSpawn)
			}
		case refOn, refOff:
			g.period(ev.src, ev.at, ev.kind == refOn)
		case refEmit:
			s := &g.slab[ev.src]
			a, ok = Arrival{At: ev.at, Task: s.task, Src: s.node,
				Dst: int32(g.m.pickDst(int(s.node), &s.rng))}, true
			if next := ev.at + s.gap; next < s.onEnd {
				g.push(next, ev.src, refEmit)
			}
		}
		if ev.kind != refSpawn {
			g.release(ev.src)
		}
	}
	return a, ok
}

func (g *refMachine) startTask(now sim.Time, initial bool) {
	p := &g.m.P
	var rng sim.RNG
	rng.Seed(g.rng.Uint64())
	task := g.nextTask
	g.nextTask++

	node := rng.Intn(g.m.Topo.Nodes())
	dur := sim.Time(rng.UniformRange(0.5, 1.5) * float64(p.AvgTaskDuration))
	if initial {
		dur = sim.Time(rng.Float64() * float64(dur))
		if dur < 1 {
			return
		}
	}
	end := now + dur
	if end > g.horizon {
		end = g.horizon
	}
	mean := p.TotalRate / float64(p.AvgTasks)
	rate := rng.UniformRange(1-p.RateJitter, 1+p.RateJitter) * mean
	perSourceOn := rate / (float64(p.SourcesPerTask) * p.dutyCycleOver(dur))
	gap := sim.Time(float64(p.CyclePeriod) / perSourceOn)
	if gap <= 0 {
		gap = 1
	}
	duty := p.dutyCycleOver(end - now)
	for k := 0; k < p.SourcesPerTask; k++ {
		i := int32(len(g.slab))
		if n := len(g.free); n > 0 {
			i, g.free = g.free[n-1], g.free[:n-1]
		} else {
			g.slab = append(g.slab, refSource{})
		}
		s := &g.slab[i]
		*s = refSource{node: int32(node), pending: 1, task: task, gap: gap, end: end}
		s.rng.Seed(rng.Uint64())
		g.period(i, now, s.rng.Float64() < duty)
		g.release(i)
	}
}

func (g *refMachine) period(i int32, now sim.Time, on bool) {
	s, p := &g.slab[i], &g.m.P
	if now >= s.end {
		return
	}
	if !on {
		if next := now + sim.Time(s.rng.Pareto(p.OffShape, float64(p.OffLocation))); next < s.end {
			g.push(next, i, refOn)
		}
		return
	}
	s.onEnd = now + sim.Time(s.rng.Pareto(p.OnShape, float64(p.OnLocation)))
	if s.onEnd > s.end {
		s.onEnd = s.end
	}
	if first := now + sim.Time(s.rng.Float64()*float64(s.gap)); first < s.onEnd {
		g.push(first, i, refEmit)
	}
	if s.onEnd < s.end {
		g.push(s.onEnd, i, refOff)
	}
}

func (g *refMachine) release(i int32) {
	if g.slab[i].pending--; g.slab[i].pending == 0 {
		g.free = append(g.free, i)
	}
}

func (g *refMachine) push(at sim.Time, src, kind int32) {
	g.seq++
	if src >= 0 {
		g.slab[src].pending++
	}
	e := refEvent{at: at, seq: g.seq, src: src, kind: kind}
	g.queue = append(g.queue, e)
	i := len(g.queue) - 1
	for ; i > 0 && e.less(&g.queue[(i-1)/4]); i = (i - 1) / 4 {
		g.queue[i] = g.queue[(i-1)/4]
	}
	g.queue[i] = e
}

func (g *refMachine) pop() refEvent {
	top, n := g.queue[0], len(g.queue)-1
	last := g.queue[n]
	if g.queue = g.queue[:n]; n > 0 {
		q, i := g.queue, 0
		for c := 1; c < len(q); c = 4*i + 1 {
			best := c
			for j := c + 1; j < min(c+4, len(q)); j++ {
				if q[j].less(&q[best]) {
					best = j
				}
			}
			if !q[best].less(&last) {
				break
			}
			q[i], i = q[best], best
		}
		q[i] = last
	}
	return top
}

// drain collects a machine's arrivals until next reports none.
func drain(next func() (Arrival, bool)) []Arrival {
	var out []Arrival
	for a, ok := next(); ok; a, ok = next() {
		out = append(out, a)
	}
	return out
}

// firstMismatch compares the machine's arrivals with the reference
// machine's for one launch at instant now, returning a description of the
// first difference ("" when they agree) and the machine's tie counters.
func firstMismatch(m *TwoLevel, now, horizon sim.Time) (diff string, ties, replays int) {
	g := m.start(now, horizon)
	got, want := drain(g.next), drain(refStart(m, now, horizon).next)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("arrival %d of %d: got %+v, want %+v", i, len(want), got[i], want[i]), g.ties, g.replays
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d arrivals, want %d", len(got), len(want)), g.ties, g.replays
	}
	return "", g.ties, g.replays
}

// launch is one run of a two-level model: its parameters, its topology,
// the instant it starts and its horizon.
type launch struct {
	p            TwoLevelParams
	topo         *topology.Cube
	now, horizon sim.Time
}

// tieDense draws one tie-dense launch from rng: clocks of 20-1000 ps and
// ON/OFF locations of 200 ps-1 us put many emissions, toggles and spawns
// on one picosecond. The horizon holds a launch to a few tens of
// thousands of toggles, source starts and arrivals.
func tieDense(rng *sim.RNG) launch {
	topos := []*topology.Cube{topology.NewMesh2D(2), topology.NewMesh2D(8), topology.New(4, 2, true)}
	topo := topos[rng.Intn(len(topos))]
	logUniform := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	p := NewTwoLevelParams(float64(topo.Nodes()) * logUniform(0.01, 1))
	p.CyclePeriod = sim.Duration(logUniform(20, 1000))
	p.OnLocation = sim.Duration(logUniform(200, 1e6))
	p.OffLocation = sim.Duration(logUniform(200, 1e6))
	p.SourcesPerTask = 1 + rng.Intn(32)
	p.AvgTasks = 3 + rng.Intn(98)
	p.AvgTaskDuration = sim.Duration(logUniform(1e4, 1e9))
	p.Seed = rng.Uint64()
	sources := float64(p.AvgTasks * p.SourcesPerTask)
	period := 3.5*float64(p.OnLocation) + 6*float64(p.OffLocation)
	horizon := min(20*sim.Microsecond,
		sim.Time(5e4*period/sources),
		sim.Time(1e4*float64(p.CyclePeriod)/p.TotalRate),
		sim.Time(2e4*float64(p.AvgTaskDuration)/sources))
	now := sim.Time(0)
	if rng.Intn(4) == 0 {
		now = sim.Time(rng.Intn(int(horizon) + 1))
	}
	return launch{p, topo, now, horizon}
}

// The machine must deliver exactly the reference machine's arrivals over
// tie-dense launches, and settle ties by walking arming chains on the way:
// the parameters put many emissions on one instant with one arming
// instant. Launches at picosecond ON/OFF locations also put arming
// toggles on one instant deeper than a source remembers, so the machine
// replays toggle histories, and launches of nanosecond sessions put spawns
// on one instant.
func TestMachineMatchesReference(t *testing.T) {
	var launches []launch
	rng := sim.NewRNG(35)
	for range 120 {
		launches = append(launches, tieDense(rng))
	}
	for _, seed := range []uint64{1, 2} {
		p := tieDenseParams()
		p.Seed = seed
		launches = append(launches, launch{p, topology.NewMesh2D(8), 0, 40 * sim.Nanosecond})
		// Nanosecond sessions spawned 10 ps apart, each source ON for the
		// whole session and emitting every few picoseconds: spawns share
		// instants with each other and with their sessions' emissions.
		p = NewTwoLevelParams(64)
		p.CyclePeriod, p.AvgTasks, p.AvgTaskDuration, p.SourcesPerTask, p.Seed = 20, 100, sim.Nanosecond, 2, seed
		launches = append(launches, launch{p, topology.NewMesh2D(8), 0, 5 * sim.Nanosecond})
	}
	ties, replays := 0, 0
	for i, l := range launches {
		m, err := NewTwoLevel(l.p, l.topo)
		if err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
		diff, n, r := firstMismatch(m, l.now, l.horizon)
		if diff != "" {
			t.Fatalf("launch %d (%+v, %d nodes, at %v, horizon %v): %s", i, l.p, l.topo.Nodes(), l.now, l.horizon, diff)
		}
		ties, replays = ties+n, replays+r
	}
	t.Logf("%d ties settled out of line, %d toggle histories replayed", ties, replays)
	if ties == 0 || replays == 0 {
		t.Fatalf("%d ties, %d replays: the out-of-line tie path did not run in full", ties, replays)
	}
}

// FuzzMachineMatchesReference compares the machine with the reference
// machine on arbitrary seeds, rates, session lengths, ON/OFF locations,
// session widths and horizons on a 4x4 mesh at a 100 ps clock, folded into
// ranges that keep one launch to tens of milliseconds.
func FuzzMachineMatchesReference(f *testing.F) {
	f.Add(uint64(1), 4.0, uint64(10_000_000), uint64(200), uint64(200), uint8(31), uint64(2_000_000))
	f.Add(uint64(7), 0.5, uint64(100_000), uint64(1000), uint64(300), uint8(3), uint64(500_000))
	f.Add(uint64(35), 2.0, uint64(1_000_000), uint64(150), uint64(5000), uint8(0), uint64(1_000_000))
	topo := topology.NewMesh2D(4)
	f.Fuzz(func(t *testing.T, seed uint64, rate float64, dur, onLoc, offLoc uint64, spt uint8, horizon uint64) {
		if !(rate > 0) {
			return
		}
		p := NewTwoLevelParams(min(rate, 4))
		p.Seed = seed
		p.CyclePeriod = 100
		p.AvgTasks = 10
		p.AvgTaskDuration = sim.Duration(100_000 + dur%1_000_000_000)
		p.OnLocation = sim.Duration(100 + onLoc%2_000_000)
		p.OffLocation = sim.Duration(100 + offLoc%2_000_000)
		p.SourcesPerTask = 1 + int(spt%32)
		m, err := NewTwoLevel(p, topo)
		if err != nil {
			t.Fatal(err)
		}
		if diff, _, _ := firstMismatch(m, 0, sim.Time(horizon%2_000_001)); diff != "" {
			t.Fatalf("%+v, horizon %v: %s", p, horizon%2_000_001, diff)
		}
	})
}
