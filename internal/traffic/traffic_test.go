package traffic

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

type injection struct {
	src, dst int
	at       sim.Time
	task     int64
}

// collect runs a model to the horizon and gathers every injection.
func collect(m Model, horizon sim.Time) []injection {
	var sched sim.Scheduler
	var got []injection
	m.Launch(&sched, horizon, func(src, dst int, at sim.Time, task int64) {
		got = append(got, injection{src, dst, at, task})
	})
	sched.RunUntil(horizon)
	return got
}

func TestUniformRate(t *testing.T) {
	topo := topology.NewMesh2D(8)
	u := &Uniform{Topo: topo, RatePerNode: 0.01, CyclePeriod: sim.Nanosecond, Seed: 3}
	horizon := 100 * sim.Microsecond // 100k cycles
	got := collect(u, horizon)
	// Expect 64 nodes * 0.01 pkt/cycle * 100k cycles = 64000 packets.
	want := 64000.0
	if f := float64(len(got)); math.Abs(f-want) > 0.05*want {
		t.Errorf("injections = %d, want ~%g", len(got), want)
	}
}

func TestUniformDestinations(t *testing.T) {
	topo := topology.NewMesh2D(4)
	u := &Uniform{Topo: topo, RatePerNode: 0.05, CyclePeriod: sim.Nanosecond, Seed: 5}
	got := collect(u, 50*sim.Microsecond)
	seen := map[int]int{}
	for _, in := range got {
		if in.src == in.dst {
			t.Fatal("self-addressed packet")
		}
		if in.task != -1 {
			t.Fatal("uniform traffic should be sessionless")
		}
		seen[in.dst]++
	}
	// All 16 nodes receive a roughly fair share.
	for n := 0; n < topo.Nodes(); n++ {
		share := float64(seen[n]) / float64(len(got))
		if share < 0.02 || share > 0.11 {
			t.Errorf("node %d receives share %g, want ~1/16", n, share)
		}
	}
}

func TestTransposePattern(t *testing.T) {
	topo := topology.NewMesh2D(4)
	tr := Transpose(topo)
	if got := tr(topo.NodeAt(1, 3)); got != topo.NodeAt(3, 1) {
		t.Errorf("transpose(1,3) = %d, want (3,1)=%d", got, topo.NodeAt(3, 1))
	}
	bc := BitComplement(topo)
	if got := bc(0); got != 15 {
		t.Errorf("bit-complement(0) = %d, want 15", got)
	}
}

func TestPermutationOnlyFixedPairs(t *testing.T) {
	topo := topology.NewMesh2D(4)
	p := &Permutation{
		Topo: topo, RatePerNode: 0.02, CyclePeriod: sim.Nanosecond,
		Seed: 7, Pattern: Transpose(topo),
	}
	got := collect(p, 20*sim.Microsecond)
	if len(got) == 0 {
		t.Fatal("no injections")
	}
	tr := Transpose(topo)
	for _, in := range got {
		if in.dst != tr(in.src) {
			t.Fatalf("packet %d->%d violates the permutation", in.src, in.dst)
		}
	}
}

func TestTwoLevelParamsValidate(t *testing.T) {
	if err := NewTwoLevelParams(1.0).Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	bad := []func(*TwoLevelParams){
		func(p *TwoLevelParams) { p.AvgTasks = 0 },
		func(p *TwoLevelParams) { p.TotalRate = 0 },
		func(p *TwoLevelParams) { p.OnShape = 1.0 },
		func(p *TwoLevelParams) { p.SphereProb = 2 },
		func(p *TwoLevelParams) { p.RateJitter = -0.1 },
		func(p *TwoLevelParams) { p.SourcesPerTask = 0 },
		func(p *TwoLevelParams) { p.RateJitter = 1 }, // a session's rate can reach zero
	}
	for i, mutate := range bad {
		p := NewTwoLevelParams(1.0)
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestTwoLevelGapBound: a rate so low that a source's emission gap would
// overflow the simulation clock is refused up front (a wrapped gap makes a
// near-silent source emit every picosecond, and capture does not finish),
// while the lowest rates whose gaps fit still run, to no arrivals at all
// over a short horizon.
func TestTwoLevelGapBound(t *testing.T) {
	topo := topology.New(8, 2, false)
	if _, err := NewTwoLevel(NewTwoLevelParams(1e-18), topo); err == nil {
		t.Error("rate 1e-18 accepted")
	}
	m, err := NewTwoLevel(NewTwoLevelParams(1e-12), topo)
	if err != nil {
		t.Fatalf("rate 1e-12 refused: %v", err)
	}
	if tr := Capture(m, 100*sim.Nanosecond); tr.Len() != 0 {
		t.Errorf("rate 1e-12 made %d arrivals in 100 cycles", tr.Len())
	}
}

func TestDutyCycle(t *testing.T) {
	p := NewTwoLevelParams(1.0)
	// E[on] = 1us*3.5, E[off] = 1us*6 -> duty = 3.5/9.5.
	want := 3.5 / 9.5
	if got := p.DutyCycle(); math.Abs(got-want) > 1e-12 {
		t.Errorf("duty = %g, want %g", got, want)
	}
}

func newTwoLevel(t *testing.T, rate float64, seed uint64) *TwoLevel {
	t.Helper()
	p := NewTwoLevelParams(rate)
	p.Seed = seed
	// Short tasks keep test horizons small while still exercising session
	// churn.
	p.AvgTaskDuration = 50 * sim.Microsecond
	m, err := NewTwoLevel(p, topology.NewMesh2D(8))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTwoLevelAggregateRate(t *testing.T) {
	m := newTwoLevel(t, 1.0, 11)
	horizon := 300 * sim.Microsecond
	got := collect(m, horizon)
	want := 1.0 * 300000 // rate * cycles
	f := float64(len(got))
	// Heavy-tailed sources converge slowly; accept a 25% band.
	if f < 0.75*want || f > 1.25*want {
		t.Errorf("injections = %d, want ~%g", len(got), want)
	}
}

func TestTwoLevelSessionsHaveFixedSource(t *testing.T) {
	m := newTwoLevel(t, 0.5, 13)
	got := collect(m, 100*sim.Microsecond)
	srcOf := map[int64]int{}
	dsts := map[int64]map[int]bool{}
	for _, in := range got {
		if in.task < 0 {
			t.Fatal("two-level injection without session tag")
		}
		if s, ok := srcOf[in.task]; ok {
			if s != in.src {
				t.Fatalf("task %d changed source", in.task)
			}
		} else {
			srcOf[in.task] = in.src
			dsts[in.task] = map[int]bool{}
		}
		dsts[in.task][in.dst] = true
	}
	if len(srcOf) < 50 {
		t.Errorf("only %d sessions injected; expected steady-state ~100+", len(srcOf))
	}
	// Sessions spray their neighborhood: busy sessions reach several
	// distinct destinations.
	multi := 0
	for _, d := range dsts {
		if len(d) > 1 {
			multi++
		}
	}
	if multi < len(dsts)/4 {
		t.Errorf("only %d/%d sessions used multiple destinations", multi, len(dsts))
	}
}

func TestTwoLevelSphereOfLocality(t *testing.T) {
	m := newTwoLevel(t, 1.0, 17)
	got := collect(m, 200*sim.Microsecond)
	topo := m.Topo
	within := 0
	for _, in := range got {
		if topo.HopDistance(in.src, in.dst) <= m.P.SphereRadius {
			within++
		}
	}
	frac := float64(within) / float64(len(got))
	// SphereProb = 0.75; session rate jitter makes the packet-weighted
	// fraction noisier than the session-weighted one.
	if frac < 0.6 || frac > 0.9 {
		t.Errorf("in-sphere fraction = %g, want ~0.75", frac)
	}
}

// TestTwoLevelSelfSimilar validates the headline property: binned injection
// counts show a Hurst exponent well above 0.5, unlike Poisson traffic.
func TestTwoLevelSelfSimilar(t *testing.T) {
	m := newTwoLevel(t, 1.0, 19)
	horizon := 400 * sim.Microsecond
	got := collect(m, horizon)
	const binW = 100 * sim.Nanosecond
	bins := int(horizon / binW)
	counts := make([]float64, bins)
	for _, in := range got {
		b := int(in.at / binW)
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	h := stats.HurstAggVar(counts)
	if math.IsNaN(h) || h < 0.6 {
		t.Errorf("two-level Hurst = %g, want > 0.6 (self-similar)", h)
	}

	// Contrast: uniform Poisson traffic at the same rate is short-range
	// dependent (H ~ 0.5).
	u := &Uniform{Topo: m.Topo, RatePerNode: 1.0 / 64, CyclePeriod: sim.Nanosecond, Seed: 23}
	pois := collect(u, horizon)
	pc := make([]float64, bins)
	for _, in := range pois {
		b := int(in.at / binW)
		if b >= bins {
			b = bins - 1
		}
		pc[b]++
	}
	hp := stats.HurstAggVar(pc)
	if math.IsNaN(hp) || hp > 0.65 {
		t.Errorf("Poisson Hurst = %g, want ~0.5", hp)
	}
	if h <= hp {
		t.Errorf("two-level H (%g) not above Poisson H (%g)", h, hp)
	}
}

func TestTwoLevelDeterministic(t *testing.T) {
	a := collect(newTwoLevel(t, 0.8, 29), 50*sim.Microsecond)
	b := collect(newTwoLevel(t, 0.8, 29), 50*sim.Microsecond)
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at injection %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestTwoLevelSeedsDiffer(t *testing.T) {
	a := collect(newTwoLevel(t, 0.8, 1), 20*sim.Microsecond)
	b := collect(newTwoLevel(t, 0.8, 2), 20*sim.Microsecond)
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

// TestTwoLevelSpatialVariance: unlike uniform traffic, per-node injection
// counts vary widely across the mesh (Figure 8's property).
func TestTwoLevelSpatialVariance(t *testing.T) {
	m := newTwoLevel(t, 1.0, 31)
	got := collect(m, 200*sim.Microsecond)
	perNode := make([]float64, m.Topo.Nodes())
	for _, in := range got {
		perNode[in.src]++
	}
	var s stats.Stream
	for _, c := range perNode {
		s.Add(c)
	}
	// Coefficient of variation across nodes should be substantial.
	cv := s.Std() / s.Mean()
	if cv < 0.3 {
		t.Errorf("spatial CV = %g, want > 0.3 (bursty placement)", cv)
	}
}
