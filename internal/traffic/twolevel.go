package traffic

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/topology"
)

// TwoLevelParams configures the paper's two-level workload model.
type TwoLevelParams struct {
	// AvgTasks is the average number of concurrent communication task
	// sessions (the paper evaluates 50 and 100). Task arrivals are Poisson
	// with rate AvgTasks / AvgTaskDuration, which by Little's law sustains
	// this concurrency.
	AvgTasks int
	// AvgTaskDuration is the mean session length (paper: 10 us to 1 ms);
	// actual durations are uniform in [0.5, 1.5] times the mean.
	AvgTaskDuration sim.Duration
	// TotalRate is the target aggregate packet injection rate for the whole
	// network, in packets per router cycle (the x-axis of Figures 10-17).
	TotalRate float64
	// CyclePeriod is the router clock period defining "cycle".
	CyclePeriod sim.Duration

	// SphereRadius and SphereProb parameterize the sphere-of-locality
	// destination rule (Reed & Grunwald): with probability SphereProb the
	// destination is uniform among nodes within SphereRadius hops of the
	// source, otherwise uniform among the rest.
	SphereRadius int
	SphereProb   float64

	// SourcesPerTask is the number of Pareto ON/OFF sources multiplexed
	// inside each session. The paper multiplexes 128; the default is 32,
	// which preserves the long-range-dependent aggregate (any superposition
	// of Pareto ON/OFF sources is LRD) at a quarter of the event cost. Set
	// to 128 for the paper-exact configuration.
	SourcesPerTask int
	// OnShape and OffShape are the Pareto shape parameters (paper: 1.4 and
	// 1.2, from Leland et al.'s Ethernet measurements).
	OnShape, OffShape float64
	// OnLocation and OffLocation are the Pareto location (minimum) values
	// for ON and OFF period lengths.
	OnLocation, OffLocation sim.Duration

	// RateJitter spreads session rates uniformly in
	// [1-RateJitter, 1+RateJitter] times the per-session mean (the paper's
	// "average packet injection rate across different communication task
	// sessions is uniformly distributed within a specified range").
	RateJitter float64

	// Seed selects the deterministic random stream.
	Seed uint64
}

// NewTwoLevelParams returns the paper's Section 4.4.1 configuration for a
// given aggregate injection rate: 100 concurrent tasks of 1 ms average
// duration.
func NewTwoLevelParams(totalRate float64) TwoLevelParams {
	return TwoLevelParams{
		AvgTasks:        100,
		AvgTaskDuration: sim.Millisecond,
		TotalRate:       totalRate,
		CyclePeriod:     sim.Nanosecond,
		SphereRadius:    3,
		SphereProb:      0.75,
		SourcesPerTask:  32,
		OnShape:         1.4,
		OffShape:        1.2,
		OnLocation:      sim.Microsecond,
		OffLocation:     sim.Microsecond,
		RateJitter:      0.5,
		Seed:            1,
	}
}

// Validate reports whether the parameters are usable.
func (p TwoLevelParams) Validate() error {
	switch {
	case p.AvgTasks < 1:
		return fmt.Errorf("traffic: AvgTasks = %d", p.AvgTasks)
	case p.AvgTaskDuration <= 0:
		return fmt.Errorf("traffic: AvgTaskDuration = %v", p.AvgTaskDuration)
	case !(p.TotalRate > 0) || math.IsInf(p.TotalRate, 1):
		return fmt.Errorf("traffic: TotalRate = %g, want a finite rate > 0 packets/cycle", p.TotalRate)
	case p.CyclePeriod <= 0:
		return fmt.Errorf("traffic: CyclePeriod = %v", p.CyclePeriod)
	case p.SphereProb < 0 || p.SphereProb > 1:
		return fmt.Errorf("traffic: SphereProb = %g", p.SphereProb)
	case p.SourcesPerTask < 1:
		return fmt.Errorf("traffic: SourcesPerTask = %d", p.SourcesPerTask)
	case p.OnShape <= 1 || p.OffShape <= 1:
		return fmt.Errorf("traffic: Pareto shapes (%g, %g) need > 1 for finite means",
			p.OnShape, p.OffShape)
	case p.OnLocation <= 0 || p.OffLocation <= 0:
		return fmt.Errorf("traffic: Pareto locations must be positive")
	case p.RateJitter < 0 || p.RateJitter > 1:
		return fmt.Errorf("traffic: RateJitter = %g outside [0,1]", p.RateJitter)
	}
	return nil
}

// DutyCycle reports the long-run ON fraction of one Pareto ON/OFF source.
func (p TwoLevelParams) DutyCycle() float64 {
	onMean := float64(p.OnLocation) * p.OnShape / (p.OnShape - 1)
	offMean := float64(p.OffLocation) * p.OffShape / (p.OffShape - 1)
	return onMean / (onMean + offMean)
}

// truncatedParetoMean is E[min(X, T)] for X ~ Pareto(shape, loc):
// loc + loc^shape * (loc^(1-shape) - T^(1-shape)) / (shape-1).
func truncatedParetoMean(shape, loc, t float64) float64 {
	if t <= loc {
		return t
	}
	return loc + math.Pow(loc, shape)*
		(math.Pow(loc, 1-shape)-math.Pow(t, 1-shape))/(shape-1)
}

// dutyCycleOver reports the expected ON fraction of a source whose periods
// are clipped at a session of length dur. Pareto tails are heavy enough
// (shapes 1.2-1.4) that a large share of the analytic period means lives in
// periods longer than a whole session; calibrating the emission gap against
// the clipped duty keeps the aggregate injection rate on target for short
// sessions too.
func (p TwoLevelParams) dutyCycleOver(dur sim.Duration) float64 {
	t := float64(dur)
	onMean := truncatedParetoMean(p.OnShape, float64(p.OnLocation), t)
	offMean := truncatedParetoMean(p.OffShape, float64(p.OffLocation), t)
	return onMean / (onMean + offMean)
}

// TwoLevel is the paper's two-level task/self-similar workload model.
type TwoLevel struct {
	P    TwoLevelParams
	Topo *topology.Cube

	// inSphere and outSphere cache NodesAtDistance per source node for
	// sphere-of-locality sampling, filled on first use.
	inSphere  [][]int
	outSphere [][]int
}

// NewTwoLevel validates p against topo and returns the model.
func NewTwoLevel(p TwoLevelParams, topo *topology.Cube) (*TwoLevel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := topo.Nodes()
	if p.TotalRate > float64(n) {
		return nil, fmt.Errorf("traffic: TotalRate = %g exceeds one packet per node per cycle (%d nodes)", p.TotalRate, n)
	}
	return &TwoLevel{P: p, Topo: topo, inSphere: make([][]int, n), outSphere: make([][]int, n)}, nil
}

// Name implements Model.
func (m *TwoLevel) Name() string { return "two-level" }

// sphere returns the (inside, outside) node lists for a source.
func (m *TwoLevel) sphere(src int) (in, out []int) {
	if m.inSphere[src] == nil && m.outSphere[src] == nil {
		for h := 1; h <= m.Topo.MaxDistance(); h++ {
			nodes := m.Topo.NodesAtDistance(src, h)
			if h <= m.P.SphereRadius {
				m.inSphere[src] = append(m.inSphere[src], nodes...)
			} else {
				m.outSphere[src] = append(m.outSphere[src], nodes...)
			}
		}
	}
	return m.inSphere[src], m.outSphere[src]
}

// pickDst applies the sphere-of-locality rule.
func (m *TwoLevel) pickDst(src int, rng *sim.RNG) int {
	in, out := m.sphere(src)
	pool := in
	if len(out) > 0 && (len(in) == 0 || rng.Float64() >= m.P.SphereProb) {
		pool = out
	}
	return pool[rng.Intn(len(pool))]
}

// Launch implements Model. It advances the machine Capture drains behind
// one chained scheduler event per distinct arrival instant, the shape of a
// trace replay, so a live run injects exactly what its trace replays.
func (m *TwoLevel) Launch(sched *sim.Scheduler, horizon sim.Time, inject Injector) {
	g := m.start(sched.Now(), horizon)
	a, ok := g.next()
	var step func()
	step = func() {
		for at := a.At; ok && a.At == at; a, ok = g.next() {
			inject(int(a.Src), int(a.Dst), at, a.Task)
		}
		if ok {
			sched.At(a.At, step)
		}
	}
	if ok {
		sched.At(a.At, step)
	}
}

// The model runs as one event machine: sources are recycled slab slots
// holding their random streams by value, pending events a pointer-free
// heap, so generation allocates nothing per session, source or ON period.
// Seq follows arming order and every source draws from a private stream,
// so the arrivals depend on the parameters and horizon alone (DESIGN.md
// §9; TestTwoLevelTraceDigests pins them).

// Machine event kinds.
const (
	evSpawn int32 = iota // the Poisson spawner starts a session
	evOn                 // a source's OFF period ends
	evOff                // a source's ON period ends
	evEmit               // a source emits one packet
)

// event is one pending machine event.
type event struct {
	at   sim.Time
	seq  int64
	src  int32 // slab slot of the source; unused by evSpawn
	kind int32
}

func (a *event) less(b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// source is one Pareto ON/OFF source of a session.
type source struct {
	rng     sim.RNG
	node    int32 // the session's source node
	pending int32 // queued events; the slot is recycled at zero
	task    int64
	gap     sim.Duration // emission spacing while ON
	end     sim.Time     // session end, clamped to the horizon
	onEnd   sim.Time     // end of the current ON period
}

// machine generates one launch of a TwoLevel model.
type machine struct {
	m        *TwoLevel
	horizon  sim.Time
	rng      sim.RNG // the spawner's stream; sessions split off it
	meanGap  float64 // mean session inter-arrival time
	nextTask int64
	seq      int64
	queue    []event // 4-ary min-heap on (at, seq)
	slab     []source
	free     []int32
}

// start arms a machine at instant now.
func (m *TwoLevel) start(now, horizon sim.Time) *machine {
	g := &machine{m: m, horizon: horizon,
		meanGap: float64(m.P.AvgTaskDuration) / float64(m.P.AvgTasks)}
	g.rng.Seed(m.P.Seed)
	// Pre-populate: at t=0 the steady state already has ~AvgTasks sessions
	// in flight; start them immediately with residual lifetimes so the
	// simulation needs no multi-millisecond warmup to reach Little's-law
	// equilibrium.
	for i := 0; i < m.P.AvgTasks; i++ {
		g.startTask(now, true)
	}
	if first := sim.Time(g.rng.Exp(g.meanGap)); first <= horizon {
		g.push(first, -1, evSpawn)
	}
	return g
}

// next runs the machine up to its next arrival; ok is false once the
// workload is exhausted.
func (g *machine) next() (a Arrival, ok bool) {
	for len(g.queue) > 0 && !ok {
		ev := g.pop()
		switch ev.kind {
		case evSpawn:
			g.startTask(ev.at, false)
			if next := ev.at + sim.Time(g.rng.Exp(g.meanGap)); next <= g.horizon {
				g.push(next, -1, evSpawn)
			}
		case evOn, evOff:
			g.period(ev.src, ev.at, ev.kind == evOn)
		case evEmit:
			s := &g.slab[ev.src]
			a, ok = Arrival{At: ev.at, Task: s.task, Src: s.node,
				Dst: int32(g.m.pickDst(int(s.node), &s.rng))}, true
			if next := ev.at + s.gap; next < s.onEnd {
				g.push(next, ev.src, evEmit)
			}
		}
		if ev.kind != evSpawn {
			g.release(ev.src)
		}
	}
	return a, ok
}

// startTask creates one communication session: a source node, a duration,
// a target rate, and SourcesPerTask ON/OFF sources. Destinations are drawn
// per packet from the sphere of locality around the source (Reed &
// Grunwald model a per-message destination distribution), so a session
// spreads its load across its neighborhood rather than hammering one path.
func (g *machine) startTask(now sim.Time, initial bool) {
	p := &g.m.P
	var rng sim.RNG
	rng.Seed(g.rng.Uint64())
	task := g.nextTask
	g.nextTask++

	node := rng.Intn(g.m.Topo.Nodes())
	dur := sim.Time(rng.UniformRange(0.5, 1.5) * float64(p.AvgTaskDuration))
	if initial {
		// A session already in flight at t=0 has only its residual
		// lifetime left.
		dur = sim.Time(rng.Float64() * float64(dur))
		if dur < 1 {
			return
		}
	}
	end := now + dur
	if end > g.horizon {
		end = g.horizon
	}

	// Session rate (packets/cycle), jittered around the per-session mean.
	mean := p.TotalRate / float64(p.AvgTasks)
	rate := rng.UniformRange(1-p.RateJitter, 1+p.RateJitter) * mean
	// Per-source emission rate while ON, such that SourcesPerTask sources
	// at the session's clipped duty cycle average out to the session rate.
	perSourceOn := rate / (float64(p.SourcesPerTask) * p.dutyCycleOver(dur))
	gap := sim.Time(float64(p.CyclePeriod) / perSourceOn)
	if gap <= 0 {
		gap = 1
	}

	// Every source of the session starts ON with the same probability: the
	// duty cycle clipped to what is left of the session after the horizon
	// clamp. Computed once here, not once per source.
	duty := p.dutyCycleOver(end - now)
	for k := 0; k < p.SourcesPerTask; k++ {
		i := int32(len(g.slab))
		if n := len(g.free); n > 0 {
			i, g.free = g.free[n-1], g.free[:n-1]
		} else {
			g.slab = append(g.slab, source{})
		}
		s := &g.slab[i]
		*s = source{node: int32(node), pending: 1, task: task, gap: gap, end: end}
		s.rng.Seed(rng.Uint64())
		// Start in steady state: ON with probability the clipped duty.
		g.period(i, now, s.rng.Float64() < duty)
		g.release(i) // the start itself
	}
}

// period starts an ON period — a packet train at spacing gap from a
// uniform phase, and the OFF period at its end — or an OFF period, which
// emits nothing. Nothing outlives the session.
func (g *machine) period(i int32, now sim.Time, on bool) {
	s, p := &g.slab[i], &g.m.P
	if now >= s.end {
		return
	}
	if !on {
		if next := now + sim.Time(s.rng.Pareto(p.OffShape, float64(p.OffLocation))); next < s.end {
			g.push(next, i, evOn)
		}
		return
	}
	s.onEnd = now + sim.Time(s.rng.Pareto(p.OnShape, float64(p.OnLocation)))
	if s.onEnd > s.end {
		s.onEnd = s.end
	}
	if first := now + sim.Time(s.rng.Float64()*float64(s.gap)); first < s.onEnd {
		g.push(first, i, evEmit)
	}
	if s.onEnd < s.end {
		g.push(s.onEnd, i, evOff)
	}
}

// release retires one of slot i's pending events, recycling the slot once
// none is left.
func (g *machine) release(i int32) {
	if g.slab[i].pending--; g.slab[i].pending == 0 {
		g.free = append(g.free, i)
	}
}

// push queues an event under the next sequence number, so events of one
// instant fire in the order the model armed them.
func (g *machine) push(at sim.Time, src, kind int32) {
	g.seq++
	if src >= 0 {
		g.slab[src].pending++
	}
	e := event{at: at, seq: g.seq, src: src, kind: kind}
	g.queue = append(g.queue, e)
	i := len(g.queue) - 1
	for ; i > 0 && e.less(&g.queue[(i-1)/4]); i = (i - 1) / 4 {
		g.queue[i] = g.queue[(i-1)/4]
	}
	g.queue[i] = e
}

// pop removes and returns the earliest event.
func (g *machine) pop() event {
	top, n := g.queue[0], len(g.queue)-1
	last := g.queue[n]
	if g.queue = g.queue[:n]; n > 0 {
		g.siftDown(last)
	}
	return top
}

// siftDown puts e in the root slot and restores heap order below it.
func (g *machine) siftDown(e event) {
	q, i := g.queue, 0
	for c := 1; c < len(q); c = 4*i + 1 {
		best := c
		for j := c + 1; j < min(c+4, len(q)); j++ {
			if q[j].less(&q[best]) {
				best = j
			}
		}
		if !q[best].less(&e) {
			break
		}
		q[i], i = q[best], best
	}
	q[i] = e
}
