package traffic

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// pointLowParams is the benchmark's near-idle workload: rate 0.05 in 10 us
// sessions, where generating sessions, not emitting packets, is the work.
func pointLowParams() TwoLevelParams {
	p := NewTwoLevelParams(0.05)
	p.AvgTaskDuration = 10 * sim.Microsecond
	return p
}

// A live launch must inject exactly the arrivals its trace records, in
// order, each at scheduler time equal to its timestamp — even when foreign
// events share the scheduler and collide with arrival instants, as the
// network's own events do. One model serves both runs: a launch leaves no
// state behind that a later one could see.
func TestLiveLaunchMatchesCapture(t *testing.T) {
	mesh, torus := topology.NewMesh2D(8), topology.New(4, 2, true)
	for _, c := range []struct {
		name    string
		rate    float64
		dur     sim.Duration
		topo    *topology.Cube
		horizon sim.Time
	}{
		{"low/10us", 0.05, 10 * sim.Microsecond, mesh, 40 * sim.Microsecond},
		{"mid/100us", 0.3, 100 * sim.Microsecond, mesh, 20 * sim.Microsecond},
		{"sat/1ms", 4.0, sim.Millisecond, mesh, 5 * sim.Microsecond},
		{"torus", 1.0, 20 * sim.Microsecond, torus, 10 * sim.Microsecond},
	} {
		p := NewTwoLevelParams(c.rate)
		p.AvgTaskDuration = c.dur
		m, err := NewTwoLevel(p, c.topo)
		if err != nil {
			t.Fatal(err)
		}
		tr := Capture(m, c.horizon)
		if tr.Len() == 0 {
			t.Fatalf("%s: empty capture", c.name)
		}
		var sched sim.Scheduler
		foreign := 0
		bump := func() { foreign++ }
		// Foreign events armed ahead at every seventh arrival instant, and
		// from inside the injector at the current and the next instant.
		for i := 0; i < tr.Len(); i += 7 {
			sched.At(tr.At(i).At, bump)
		}
		n := 0
		m.Launch(&sched, c.horizon, func(src, dst int, at sim.Time, task int64) {
			if n >= tr.Len() {
				t.Fatalf("%s: live run injected more than the %d captured arrivals", c.name, tr.Len())
			}
			want := tr.At(n)
			if got := (Arrival{At: at, Task: task, Src: int32(src), Dst: int32(dst)}); got != want {
				t.Fatalf("%s: live arrival %d = %+v, captured %+v", c.name, n, got, want)
			}
			if sched.Now() != at {
				t.Fatalf("%s: arrival %d injected at scheduler time %v, stamped %v", c.name, n, sched.Now(), at)
			}
			n++
			sched.At(at, bump)
			if n < tr.Len() {
				sched.At(tr.At(n).At, bump)
			}
		})
		sched.RunUntil(c.horizon)
		if n != tr.Len() {
			t.Fatalf("%s: live run injected %d of %d arrivals", c.name, n, tr.Len())
		}
		if foreign == 0 || sched.Pending() != 0 {
			t.Fatalf("%s: %d foreign events ran, %d events left pending", c.name, foreign, sched.Pending())
		}
	}
}

// While arrivals remain, the live chain keeps exactly the next arrival's
// instant pending — fast-forward may jump to it and no further — and once
// they are exhausted it leaves nothing on the scheduler.
func TestLiveLaunchKeepsNextArrivalPending(t *testing.T) {
	horizon := 30 * sim.Microsecond
	m, err := NewTwoLevel(pointLowParams(), topology.NewMesh2D(8))
	if err != nil {
		t.Fatal(err)
	}
	tr := Capture(m, horizon)
	if tr.Len() < 2 {
		t.Fatal("trace too short to observe chaining")
	}
	var sched sim.Scheduler
	n := 0
	m.Launch(&sched, horizon, func(int, int, sim.Time, int64) { n++ })
	for {
		if n < tr.Len() {
			if got, want := sched.PeekTime(), tr.At(n).At; got != want {
				t.Fatalf("after %d arrivals the earliest pending event is at %v, the next arrival at %v", n, got, want)
			}
		} else if sched.Pending() != 0 {
			t.Fatalf("%d events pending after the last arrival", sched.Pending())
		}
		if !sched.Step() {
			break
		}
	}
	if n != tr.Len() {
		t.Fatalf("delivered %d of %d arrivals", n, tr.Len())
	}
}

// Rates the two-level model cannot run at are errors at construction; a
// NaN or infinite rate would otherwise emit every picosecond forever.
func TestTwoLevelRejectsBadRates(t *testing.T) {
	topo := topology.NewMesh2D(8)
	for _, c := range []struct {
		rate float64
		ok   bool
	}{
		{0.05, true},
		{64, true}, // one packet per node per cycle
		{0, false},
		{-1, false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{64.5, false},
		{1e300, false},
	} {
		_, err := NewTwoLevel(NewTwoLevelParams(c.rate), topo)
		if (err == nil) != c.ok {
			t.Errorf("rate %g: err = %v, want ok=%v", c.rate, err, c.ok)
		}
	}
}

// The per-node models accept a finite rate in (0, 1] and refuse anything
// else with an error instead of hanging or panicking inside the scheduler.
func TestPerNodeModelsRejectBadRates(t *testing.T) {
	topo := topology.NewMesh2D(4)
	launchers := map[string]func(rate float64) Model{
		"uniform": func(r float64) Model {
			return &Uniform{Topo: topo, RatePerNode: r, CyclePeriod: sim.Nanosecond, Seed: 1}
		},
		"permutation": func(r float64) Model {
			return &Permutation{Topo: topo, RatePerNode: r, CyclePeriod: sim.Nanosecond, Seed: 1, Pattern: Transpose(topo)}
		},
		"hotspot": func(r float64) Model {
			return &Hotspot{Topo: topo, RatePerNode: r, CyclePeriod: sim.Nanosecond, Seed: 1, Hot: 3, Fraction: 0.2}
		},
	}
	for _, c := range []struct {
		rate float64
		ok   bool
	}{
		{0.01, true},
		{1, true},
		{0, false},
		{-0.5, false},
		{1.0001, false},
		{1e300, false},
		{math.NaN(), false},
		{math.Inf(1), false},
	} {
		if err := ValidNodeRate(c.rate); (err == nil) != c.ok {
			t.Errorf("ValidNodeRate(%g) = %v, want ok=%v", c.rate, err, c.ok)
		}
		for name, mk := range launchers {
			func() {
				defer func() {
					r := recover()
					if _, isErr := r.(error); c.ok != (r == nil) || (r != nil && !isErr) {
						t.Errorf("%s at rate %g: Launch panicked with %v, want ok=%v", name, c.rate, r, c.ok)
					}
				}()
				var sched sim.Scheduler
				mk(c.rate).Launch(&sched, 2*sim.Microsecond, func(int, int, sim.Time, int64) {})
				sched.RunUntil(2 * sim.Microsecond)
			}()
		}
	}
}

// tieDenseParams is a saturated load at picosecond ON/OFF locations and a
// 20 ps clock: emissions and arming toggles pile onto single instants, so
// the machine settles many ties by walking arming chains and replays some
// toggle histories.
func tieDenseParams() TwoLevelParams {
	p := NewTwoLevelParams(4.0)
	p.CyclePeriod, p.OnLocation, p.OffLocation = 20, 1, 1
	p.AvgTasks, p.AvgTaskDuration = 3, 10*sim.Microsecond
	return p
}

// captureWorkloads are the captures TestCaptureAllocations bounds and
// BenchmarkCapture times: short sessions (session set-up dominates), a
// saturated load (packet emission dominates) and a tie-dense load (ties
// settled along arming chains are frequent).
var captureWorkloads = []struct {
	name    string
	p       TwoLevelParams
	horizon sim.Time
}{
	{"short-session", pointLowParams(), 200 * sim.Microsecond},
	{"saturated", NewTwoLevelParams(4.0), 20 * sim.Microsecond},
	{"tie-dense", tieDenseParams(), 40 * sim.Nanosecond},
}

// Capturing a workload must cost a bounded number of allocations however
// many sessions, ON periods and ties it runs: the generator's per-source
// state is recycled, not allocated per session, per source or per ON
// period, and ties replay into scratch buffers the machine keeps. The
// bound covers the encoder's blocks, the sphere tables and slice growth.
func TestCaptureAllocations(t *testing.T) {
	topo := topology.NewMesh2D(8)
	const limit = 5000
	for _, c := range captureWorkloads {
		allocs := testing.AllocsPerRun(1, func() {
			m, err := NewTwoLevel(c.p, topo)
			if err != nil {
				t.Fatal(err)
			}
			Capture(m, c.horizon)
		})
		if allocs > limit {
			t.Errorf("capturing %v of the %s workload allocated %.0f times, want <= %d", c.horizon, c.name, allocs, limit)
		}
	}
}

// BenchmarkCapture times workload generation straight into the trace
// encoder, per arrival.
func BenchmarkCapture(b *testing.B) {
	topo := topology.NewMesh2D(8)
	for _, bc := range captureWorkloads {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			arrivals := 0
			for i := 0; i < b.N; i++ {
				m, err := NewTwoLevel(bc.p, topo)
				if err != nil {
					b.Fatal(err)
				}
				arrivals += Capture(m, bc.horizon).Len()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(arrivals), "ns/arrival")
		})
	}
}
