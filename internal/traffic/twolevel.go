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
	case !(p.maxGap() < float64(sim.Infinity)):
		return fmt.Errorf("traffic: TotalRate = %g with RateJitter = %g: a source's emission gap can reach %.3g ps, beyond the simulation clock's range",
			p.TotalRate, p.RateJitter, p.maxGap())
	}
	return nil
}

// maxGap bounds the emission spacing, in picoseconds, that any source can
// draw (see startTask): a session's gap is CyclePeriod·SourcesPerTask·duty /
// rate, its duty is at most one, and its rate at least the jitter's floor.
// A gap past sim.Time's range would wrap when converted, and the wrapped
// gap turns a near-silent source into one emitting every picosecond.
func (p TwoLevelParams) maxGap() float64 {
	slowest := (1 - p.RateJitter) * p.TotalRate / float64(p.AvgTasks)
	return float64(p.CyclePeriod) * float64(p.SourcesPerTask) / slowest
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

// The model runs as one event machine over recycled slab slots, each
// holding one source's random stream by value, and a pointer-free heap, so
// generation allocates nothing per session, source or ON period. Only
// spawns and emissions are queued: a source walks its own ON/OFF periods in
// its slot, drawing its private stream in period order, until it arms its
// next emission or its session ends, so the heap holds the pending spawn
// and at most one emission per source.
//
// The arrivals are those of the plain event machine that queues every
// spawn, toggle and emission on (at, seq), seq following arming order
// (DESIGN.md §9; TestTwoLevelTraceDigests pins them, refmachine_test.go
// keeps that machine as the oracle). Every event is armed while another
// one fires, so the plain machine's order is the recursive key
// (at, key(arming event), push index). The heap compares (at, armAt), armAt
// being the arming event's instant (-1 for the launch itself), and settles
// the rare equal pair in tie, which walks both arming chains back in
// lockstep until an instant differs or the chains meet at a spawn.

// entry is a pending machine event: a source's next emission, or the next
// spawn when src < 0.
type entry struct {
	at    sim.Time
	armAt sim.Time // instant of the event that armed this one; -1 the launch
	src   int32
}

// source is one Pareto ON/OFF source of a session, positioned on the ON
// period of its pending emission.
type source struct {
	rng     sim.RNG
	seed    sim.RNG     // the stream after the start draw, for replaying toggles
	node    int32       // the session's source node
	k       int32       // index in its session, the order its spawn armed it in
	toggles int64       // ON/OFF toggles so far, the current ON start included
	recent  [4]sim.Time // the last toggles' instants, toggle n at n%4
	task    int64
	gap     sim.Duration // emission spacing while ON
	start   sim.Time     // session start
	end     sim.Time     // session end, clamped to the horizon
	first   sim.Time     // first emission of the current ON period
	onEnd   sim.Time     // end of the current ON period
}

// machine generates one launch of a TwoLevel model.
type machine struct {
	m        *TwoLevel
	horizon  sim.Time
	rng      sim.RNG // the spawner's stream; sessions split off it
	meanGap  float64 // mean session inter-arrival time
	nextTask int64
	spawnAt  []sim.Time // instants of the spawns fired so far
	queue    []entry    // 4-ary min-heap in the plain machine's event order
	slab     []source
	free     []int32
	hist     [2][]sim.Time // replayed toggle instants, one buffer per side of a tie

	// ties counts the equal (at, armAt) pairs tie settled, replays the
	// toggle histories it redrew.
	ties, replays int
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
	if first := now + sim.Time(g.rng.Exp(g.meanGap)); first <= horizon {
		g.push(entry{at: first, armAt: -1, src: -1})
	}
	return g
}

// next runs the machine up to its next arrival; ok is false once the
// workload is exhausted.
func (g *machine) next() (a Arrival, ok bool) {
	for len(g.queue) > 0 {
		e := g.queue[0]
		if e.src < 0 {
			g.pop()
			g.spawnAt = append(g.spawnAt, e.at)
			g.startTask(e.at, false)
			if next := e.at + sim.Time(g.rng.Exp(g.meanGap)); next <= g.horizon {
				g.push(entry{at: next, armAt: e.at, src: -1})
			}
			continue
		}
		s := &g.slab[e.src]
		a = Arrival{At: e.at, Task: s.task, Src: s.node,
			Dst: int32(g.m.pickDst(int(s.node), &s.rng))}
		if next := e.at + s.gap; next < s.onEnd {
			g.replaceTop(entry{at: next, armAt: e.at, src: e.src})
		} else {
			// The ON period ends at onEnd: walk on from its OFF toggle.
			s.toggle(s.onEnd)
			if ne, armed := g.walk(e.src, s.onEnd, false); armed {
				g.replaceTop(ne)
			} else {
				g.pop()
			}
		}
		return a, true
	}
	return a, false
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
		*s = source{node: int32(node), k: int32(k), task: task, gap: gap, start: now, end: end}
		s.rng.Seed(rng.Uint64())
		// Start in steady state: ON with probability the clipped duty.
		on := s.rng.Float64() < duty
		s.seed = s.rng
		if e, ok := g.walk(i, now, on); ok {
			g.push(e)
		}
	}
}

// walk runs source i's periods from instant now, where an ON period (a
// packet train at spacing gap from a uniform phase) or an OFF period
// starts, and returns the entry of the first emission it arms. A session
// that ends first recycles the slot instead.
func (g *machine) walk(i int32, now sim.Time, on bool) (entry, bool) {
	s, p := &g.slab[i], &g.m.P
	for now < s.end {
		if on {
			onEnd := min(now+sim.Time(s.rng.Pareto(p.OnShape, float64(p.OnLocation))), s.end)
			if first := now + sim.Time(s.rng.Float64()*float64(s.gap)); first < onEnd {
				s.first, s.onEnd = first, onEnd
				armAt := now
				if s.toggles == 0 {
					armAt = g.spawnTime(g.spawnOf(s.task))
				}
				return entry{at: first, armAt: armAt, src: i}, true
			}
			now = onEnd
		} else {
			now += sim.Time(s.rng.Pareto(p.OffShape, float64(p.OffLocation)))
		}
		s.toggle(now)
		on = !on
	}
	g.free = append(g.free, i)
	return entry{}, false
}

// toggle records that s toggled ON or OFF at instant at.
func (s *source) toggle(at sim.Time) {
	s.toggles++
	s.recent[s.toggles%int64(len(s.recent))] = at
}

// spawnOf reports the number of the spawn that started task, -1 for a
// session the launch itself started.
func (g *machine) spawnOf(task int64) int64 {
	return max(task-int64(g.m.P.AvgTasks), -1)
}

// spawnTime reports the instant of spawn n, -1 for the launch.
func (g *machine) spawnTime(n int64) sim.Time {
	if n < 0 {
		return -1
	}
	return g.spawnAt[n]
}

// order compares two entries on (at, armAt), negative when a fires first.
// The heap loops call it inline and leave an equal pair, zero, to tie.
func order(a, b *entry) sim.Time {
	if a.at != b.at {
		return a.at - b.at
	}
	return a.armAt - b.armAt
}

// Arming-chain link kinds.
const (
	linkTrain  = iota // an emission of a source's current ON period
	linkToggle        // an ON/OFF toggle of a source
	linkSpawn         // a spawn, or the launch itself
)

// link is a cursor on an entry's arming chain: the entry, the event that
// armed it, the event that armed that one, and so on back to a spawn. Each
// spawn was armed by the one before it, the first by the launch.
type link struct {
	at   sim.Time
	kind int
	n    int64      // emission index in the train, toggle number, or spawn number (-1 the launch)
	s    *source    // nil on the spawn chain
	hist []sim.Time // s's toggle instants before its ON start, replayed on first need

	// task and k name the link a spawn was reached from, the order that
	// spawn armed its children in: source k of task, or the next spawn
	// (task = MaxInt64) last.
	task int64
	k    int32
}

// tie reports whether a fires before b, two entries of equal (at, armAt):
// the first differing instant along their arming chains decides, and where
// the chains meet at one spawn, the order that spawn armed their links in.
// Both entries are never one source's (a source has one entry), so the
// chains can only meet on the spawn chain.
func (g *machine) tie(a, b *entry) bool {
	g.ties++
	x, y := g.link(a, 0), g.link(b, 1)
	for {
		if x.kind == linkTrain && y.kind == linkTrain && x.s.gap == y.s.gap {
			// Two trains level at one instant and one gap stay level down
			// to the shorter one's first emission.
			d := min(x.n, y.n)
			x.n, x.at = x.n-d, x.at-sim.Time(d)*x.s.gap
			y.n, y.at = y.n-d, y.at-sim.Time(d)*y.s.gap
		}
		g.up(&x, 0)
		g.up(&y, 1)
		switch {
		case x.at != y.at:
			return x.at < y.at
		case x.kind == linkSpawn && y.kind == linkSpawn:
			if x.n != y.n {
				return x.n < y.n
			}
			return x.task < y.task || x.task == y.task && x.k < y.k
		}
	}
}

// link returns the cursor on entry e itself.
func (g *machine) link(e *entry, side int) link {
	if e.src < 0 {
		return link{at: e.at, kind: linkSpawn, n: int64(len(g.spawnAt))}
	}
	s := &g.slab[e.src]
	return link{at: e.at, kind: linkTrain, n: int64((e.at - s.first) / s.gap), s: s, hist: g.hist[side][:0]}
}

// up moves l to the event that armed its current one.
func (g *machine) up(l *link, side int) {
	s := l.s
	switch {
	case l.kind == linkTrain && l.n > 0:
		l.n--
		l.at -= s.gap
	case l.kind == linkTrain && s.toggles > 0:
		l.kind, l.n = linkToggle, s.toggles
		l.at = s.recent[l.n%int64(len(s.recent))]
	case l.kind == linkToggle && l.n > 1:
		l.n--
		if s.toggles-l.n < int64(len(s.recent)) {
			l.at = s.recent[l.n%int64(len(s.recent))]
			break
		}
		if len(l.hist) == 0 {
			l.hist = g.replay(s, l.hist)
			g.hist[side] = l.hist
		}
		l.at = l.hist[l.n-1]
	case l.kind == linkSpawn:
		l.task, l.k = math.MaxInt64, 0
		l.n--
		l.at = g.spawnTime(l.n)
	default: // the source's first period, armed by its spawn
		l.kind, l.task, l.k = linkSpawn, s.task, s.k
		l.n = g.spawnOf(s.task)
		l.at = g.spawnTime(l.n)
	}
}

// replay returns the instants of s's toggles before the current ON start,
// redrawing its stream from the start draw in period order.
func (g *machine) replay(s *source, buf []sim.Time) []sim.Time {
	g.replays++
	p := &g.m.P
	rng, now, on := s.seed, s.start, s.toggles%2 == 0
	for int64(len(buf)) < s.toggles-1 {
		if on {
			// A later toggle exists, so this ON period ended inside the
			// session.
			onEnd := now + sim.Time(rng.Pareto(p.OnShape, float64(p.OnLocation)))
			for t := now + sim.Time(rng.Float64()*float64(s.gap)); t < onEnd; t += s.gap {
				g.m.pickDst(int(s.node), &rng)
			}
			now = onEnd
		} else {
			now += sim.Time(rng.Pareto(p.OffShape, float64(p.OffLocation)))
		}
		buf = append(buf, now)
		on = !on
	}
	return buf
}

// push queues an entry.
func (g *machine) push(e entry) {
	g.queue = append(g.queue, e)
	i := len(g.queue) - 1
	for ; i > 0; i = (i - 1) / 4 {
		p := &g.queue[(i-1)/4]
		if c := order(&e, p); c > 0 || c == 0 && !g.tie(&e, p) {
			break
		}
		g.queue[i] = *p
	}
	g.queue[i] = e
}

// pop removes the earliest entry.
func (g *machine) pop() {
	n := len(g.queue) - 1
	last := g.queue[n]
	if g.queue = g.queue[:n]; n > 0 {
		g.replaceTop(last)
	}
}

// replaceTop puts e in the root slot in place of the earliest entry and
// restores heap order below it.
func (g *machine) replaceTop(e entry) {
	q, i := g.queue, 0
	for c := 1; c < len(q); c = 4*i + 1 {
		best := c
		for j := c + 1; j < min(c+4, len(q)); j++ {
			if o := order(&q[j], &q[best]); o < 0 || o == 0 && g.tie(&q[j], &q[best]) {
				best = j
			}
		}
		if o := order(&q[best], &e); o > 0 || o == 0 && !g.tie(&q[best], &e) {
			break
		}
		q[i], i = q[best], best
	}
	q[i] = e
}
