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
	case p.TotalRate <= 0:
		return fmt.Errorf("traffic: TotalRate = %g", p.TotalRate)
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

	// shells caches NodesAtDistance per source for sphere-of-locality
	// sampling.
	inSphere  map[int][]int
	outSphere map[int][]int

	nextTask int64
	// TasksStarted counts spawned sessions (instrumentation).
	TasksStarted int64
}

// NewTwoLevel validates p and returns the model.
func NewTwoLevel(p TwoLevelParams, topo *topology.Cube) (*TwoLevel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &TwoLevel{
		P:         p,
		Topo:      topo,
		inSphere:  make(map[int][]int),
		outSphere: make(map[int][]int),
	}, nil
}

// Name implements Model.
func (m *TwoLevel) Name() string { return "two-level" }

// sphere returns the (inside, outside) node lists for a source.
func (m *TwoLevel) sphere(src int) (in, out []int) {
	if got, ok := m.inSphere[src]; ok {
		return got, m.outSphere[src]
	}
	for h := 1; h <= m.Topo.MaxDistance(); h++ {
		nodes := m.Topo.NodesAtDistance(src, h)
		if h <= m.P.SphereRadius {
			in = append(in, nodes...)
		} else {
			out = append(out, nodes...)
		}
	}
	m.inSphere[src], m.outSphere[src] = in, out
	return in, out
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

// Launch implements Model: it arms the Poisson task spawner, which in turn
// arms each session's ON/OFF source chains.
func (m *TwoLevel) Launch(sched *sim.Scheduler, horizon sim.Time, inject Injector) {
	rng := sim.NewRNG(m.P.Seed)
	meanGap := float64(m.P.AvgTaskDuration) / float64(m.P.AvgTasks)
	var spawn func()
	spawn = func() {
		m.startTask(sched, horizon, inject, rng.Split(), false)
		next := sched.Now() + sim.Time(rng.Exp(meanGap))
		if next <= horizon {
			sched.At(next, spawn)
		}
	}
	// Pre-populate: at t=0 the steady state already has ~AvgTasks sessions
	// in flight; start them immediately with residual lifetimes so the
	// simulation needs no multi-millisecond warmup to reach Little's-law
	// equilibrium.
	for i := 0; i < m.P.AvgTasks; i++ {
		m.startTask(sched, horizon, inject, rng.Split(), true)
	}
	first := sim.Time(rng.Exp(meanGap))
	if first <= horizon {
		sched.At(first, spawn)
	}
}

// startTask creates one communication session: a source node, a duration,
// a target rate, and SourcesPerTask ON/OFF chains. Destinations are drawn
// per packet from the sphere of locality around the source (Reed &
// Grunwald model a per-message destination distribution), so a session
// spreads its load across its neighborhood rather than hammering one path.
func (m *TwoLevel) startTask(sched *sim.Scheduler, horizon sim.Time, inject Injector, rng *sim.RNG, initial bool) {
	id := m.nextTask
	m.nextTask++
	m.TasksStarted++

	src := rng.Intn(m.Topo.Nodes())
	dur := sim.Time(rng.UniformRange(0.5, 1.5) * float64(m.P.AvgTaskDuration))
	if initial {
		// A session already in flight at t=0 has only its residual
		// lifetime left.
		dur = sim.Time(rng.Float64() * float64(dur))
		if dur < 1 {
			return
		}
	}
	end := sched.Now() + dur
	if end > horizon {
		end = horizon
	}

	// Session rate (packets/cycle), jittered around the per-session mean.
	mean := m.P.TotalRate / float64(m.P.AvgTasks)
	rate := rng.UniformRange(1-m.P.RateJitter, 1+m.P.RateJitter) * mean
	// Per-source emission rate while ON, such that SourcesPerTask sources
	// at the session's clipped duty cycle average out to the session rate.
	perSourceOn := rate / (float64(m.P.SourcesPerTask) * m.P.dutyCycleOver(dur))
	gap := sim.Time(float64(m.P.CyclePeriod) / perSourceOn)
	if gap <= 0 {
		gap = 1
	}

	// Every source of the session starts ON with the same probability: the
	// duty cycle clipped to what is left of the session after the horizon
	// clamp. Computed once here, not once per source.
	duty := m.P.dutyCycleOver(end - sched.Now())
	for s := 0; s < m.P.SourcesPerTask; s++ {
		m.startSource(sched, end, inject, rng.Split(), src, id, gap, duty)
	}
}

// startSource runs one Pareto ON/OFF chain for a session. During an ON
// period packets leave with deterministic spacing `gap`, starting at a
// uniform phase; OFF periods emit nothing. The chain starts ON with
// probability duty and dies at the session end.
func (m *TwoLevel) startSource(sched *sim.Scheduler, end sim.Time, inject Injector,
	rng *sim.RNG, src int, task int64, gap sim.Duration, duty float64) {

	var on, off func()
	on = func() {
		now := sched.Now()
		if now >= end {
			return
		}
		onEnd := now + sim.Time(rng.Pareto(m.P.OnShape, float64(m.P.OnLocation)))
		if onEnd > end {
			onEnd = end
		}
		// Packet train during the ON period.
		first := now + sim.Time(rng.Float64()*float64(gap))
		var emit func()
		emit = func() {
			inject(src, m.pickDst(src, rng), sched.Now(), task)
			next := sched.Now() + gap
			if next < onEnd {
				sched.At(next, emit)
			}
		}
		if first < onEnd {
			sched.At(first, emit)
		}
		offStart := onEnd
		if offStart < end {
			sched.At(offStart, off)
		}
	}
	off = func() {
		now := sched.Now()
		if now >= end {
			return
		}
		next := now + sim.Time(rng.Pareto(m.P.OffShape, float64(m.P.OffLocation)))
		if next < end {
			sched.At(next, on)
		}
	}
	// Start in steady state: ON with probability the clipped duty cycle.
	if rng.Float64() < duty {
		on()
	} else {
		off()
	}
}
