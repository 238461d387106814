package network

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Tests for the waiting-router sleep (DESIGN §8): a busy router holding
// nothing but queued tx entries is not visited before the earliest instant
// one of them can leave.

// sleepers lists the routers asleep right now, in node order.
func (n *Network) sleepers() []int {
	var out []int
	for w, word := range n.sleepMask {
		for ; word != 0; word &= word - 1 {
			out = append(out, w<<6+bits.TrailingZeros64(word))
		}
	}
	return out
}

// lockedSleepers counts sleepers with a queued link port whose link is
// mid frequency-lock: the case where the wake instant comes from the
// link's dead interval rather than its serializer or the output pipeline.
func (n *Network) lockedSleepers() int {
	c := 0
	for _, node := range n.sleepers() {
		r := n.Routers[node]
		for mask := r.TxPortMask() &^ 1; mask != 0; mask &= mask - 1 {
			if r.Outputs[bits.TrailingZeros32(mask)].Link.State() == link.FreqLocking {
				c++
				break
			}
		}
	}
	return c
}

// TestSleepEquivalence compares the sleeping core with the NoSkip oracle
// where sleeping matters: history DVS run long enough (with 1 us voltage
// ramps) for links to walk to the bottom level, so routers spend most of
// their busy time waiting out eight-cycle serializations and frequency
// locks. Results, every link's counters and the complete captured state —
// allocator pointers, credits, pending events — must match exactly.
func TestSleepEquivalence(t *testing.T) {
	cycles := int64(30_000)
	if testing.Short() {
		cycles = 12_000
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		rate   float64
		// bottom requires some link to end the run at level 0 and some
		// router to have slept against a frequency-locking link.
		bottom bool
	}{
		{"mesh8x8/rate=0.05", func(*Config) {}, 0.05, true},
		{"mesh8x8/rate=0.3", func(*Config) {}, 0.3, true},
		{"mesh8x8/rate=1.0", func(*Config) {}, 1.0, false},
		{"torus4x4/rate=0.05", torus4x4, 0.05, true},
		{"mesh8x8-adaptive/rate=0.3", mesh8x8Adaptive, 0.3, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := NewConfig()
			cfg.Policy = PolicyHistory
			cfg.Link.VoltTransition = sim.Microsecond
			tc.mutate(&cfg)
			p := traffic.NewTwoLevelParams(tc.rate)
			p.Seed = 5
			m, err := traffic.NewTwoLevel(p, topology.New(cfg.K, cfg.N, cfg.Torus))
			if err != nil {
				t.Fatal(err)
			}
			tr := traffic.Capture(m, sim.Time(cycles+1)*cfg.RouterPeriod)

			skip := mustNew(t, cfg)
			skip.Launch(tr, tr.Horizon())
			skip.BeginMeasurement()
			slept, locked := 0, 0
			for skip.Cycle() < cycles {
				skip.Run(1)
				slept += skip.Sleeping()
				locked += skip.lockedSleepers()
			}

			cfg.NoSkip = true
			base := mustNew(t, cfg)
			base.Launch(tr, tr.Horizon())
			base.BeginMeasurement()
			base.Run(cycles)

			if slept == 0 {
				t.Fatal("no router ever slept; the comparison proves nothing")
			}
			if tc.bottom {
				atBottom := 0
				for _, l := range skip.Links() {
					if l.Level() == 0 {
						atBottom++
					}
				}
				if atBottom == 0 || locked == 0 {
					t.Errorf("%d links at the bottom level, %d router-cycles slept against a locking link; want both > 0", atBottom, locked)
				}
			}
			if s, b := fmt.Sprintf("%+v", skip.Snapshot()), fmt.Sprintf("%+v", base.Snapshot()); s != b {
				t.Errorf("Results diverge:\n skip:   %s\n noskip: %s", s, b)
			}
			now := skip.Now()
			for i, l := range skip.Links() {
				if s, b := l.StatsAt(now), base.Links()[i].StatsAt(now); !reflect.DeepEqual(s, b) {
					t.Fatalf("link %d diverges:\n skip:   %+v\n noskip: %+v", i, s, b)
				}
			}
			ss, err := skip.CaptureForDiff()
			if err != nil {
				t.Fatal(err)
			}
			bs, err := base.CaptureForDiff()
			if err != nil {
				t.Fatal(err)
			}
			ss.Skips, bs.Skips = SkipStatsState{}, SkipStatsState{}
			if !reflect.DeepEqual(ss, bs) {
				t.Error("captured states diverge beyond the skip counters")
			}
		})
	}
}

// farSleepers counts sleepers whose wake cycle lies ringSize or more cycles
// past the cycle just executed. A router parked on that cycle with such a
// wake does not fit on the wake wheel: it takes the far path, parked again
// from the slot one span ahead until it is due.
func (n *Network) farSleepers() int {
	c := 0
	for _, node := range n.sleepers() {
		if n.dueCycle(n.wakeAt[node])-(n.cycle-1) >= ringSize {
			c++
		}
	}
	return c
}

// TestWheelSpanMatchesCheckpoint ties ringSize to wheelSpan in
// internal/checkpoint/conformance_test.go, the copy its near-and-far fork
// case classifies sleepers by: a test there cannot read this constant, and
// a stale copy would let that case pass without restoring a far sleeper.
// Change the two together.
func TestWheelSpanMatchesCheckpoint(t *testing.T) {
	const wheelSpan = 64
	if ringSize != wheelSpan {
		t.Fatalf("ringSize = %d, internal/checkpoint assumes %d", ringSize, wheelSpan)
	}
}

// farLocks starts every link at the bottom level with frequency locks of
// 400 link cycles: a router behind a locking link waits hundreds of cycles,
// past the wake wheel's span.
func farLocks(c *Config) {
	c.StartLevel = 0
	c.Link.FreqTransitionCycles = 400
}

// lowLoadTrace captures the two-level workload at rate with seed 5 for a
// run of cycles router cycles on cfg's platform.
func lowLoadTrace(t *testing.T, cfg Config, rate float64, cycles int64) *traffic.Trace {
	t.Helper()
	p := traffic.NewTwoLevelParams(rate)
	p.Seed = 5
	m, err := traffic.NewTwoLevel(p, topology.New(cfg.K, cfg.N, cfg.Torus))
	if err != nil {
		t.Fatal(err)
	}
	return traffic.Capture(m, sim.Time(cycles+1)*cfg.RouterPeriod)
}

// TestSleepPinnedTicks pins how much the sleep saves on fixed runs, the way
// TestPlatformDigests pins results: a refactor that silently stops sleeping,
// or wakes a router a cycle early or late, or visits one on a stale wake,
// fails here rather than only in the benchmark. Visits plus slept visits are
// what the core made before it slept; visits alone must be fewer than the
// run's busy router-cycles. The farLocks case exercises the far path.
func TestSleepPinnedTicks(t *testing.T) {
	for _, tc := range []struct {
		name         string
		mutate       func(*Config)
		rate         float64
		cycles       int64
		far          bool // some sleeper must wake ringSize or more cycles out
		ticks, slept int64
	}{
		{"mesh8x8/rate=0.05", func(*Config) {}, 0.05, 20_000, false, 53_667, 126_189},
		{"mesh8x8/start=0/freqtran=400/rate=0.05", farLocks, 0.05, 20_000, true, 53_910, 192_796},
		{"torus4x4/rate=0.05", torus4x4, 0.05, 20_000, false, 44_129, 89_608},
		{"mesh8x8/rate=4.0", func(*Config) {}, 4.0, 3_000, false, 182_209, 8_459},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := NewConfig()
			cfg.Policy = PolicyHistory
			cfg.Link.VoltTransition = sim.Microsecond
			tc.mutate(&cfg)
			n := mustNew(t, cfg)
			n.Launch(lowLoadTrace(t, cfg, tc.rate, tc.cycles), sim.Time(tc.cycles+1)*cfg.RouterPeriod)
			var busy int64
			far := 0
			for i := int64(0); i < tc.cycles; i++ {
				n.Step()
				far += n.farSleepers()
				for _, r := range n.Routers {
					if r.Busy() {
						busy++
					}
				}
			}
			s := n.SkipStats()
			if s.RouterTicks != tc.ticks || s.RouterTicksSlept != tc.slept {
				t.Errorf("RouterTicks = %d, RouterTicksSlept = %d; pinned %d and %d", s.RouterTicks, s.RouterTicksSlept, tc.ticks, tc.slept)
			}
			if s.RouterTicks >= busy {
				t.Errorf("%d router visits over %d busy router-cycles: waiting routers are not sleeping", s.RouterTicks, busy)
			}
			if tc.far && far == 0 {
				t.Error("no sleeper ever waited past the wake wheel's span")
			}
		})
	}
}

// TestSleepWakeSources drives a flit into a sleeping router by each arrival
// path — ring bucket, source injection, and the scheduler slow path a
// 100 ps router clock forces — and requires the router to be awake on the
// cycle the flit lands. Every link sits at the bottom level, so a router
// sleeps between the flits of one packet. The audit's late-wake invariant
// watches every skipped router, and a NoSkip twin must agree on the result.
func TestSleepWakeSources(t *testing.T) {
	type injection struct {
		cycle    int64
		src, dst int
	}
	for _, tc := range []struct {
		name   string
		period sim.Duration
		inject []injection
		node   int // the router the path under test must wake
		// bySource says the waking flit comes from node's own injector
		// rather than over a link.
		bySource bool
		// check, when set, runs before each step and reports why the next
		// arrival at node could not be by the path under test ("" when it
		// could).
		check func(n *Network) string
	}{
		{
			// 0 -> 2 crosses router 1, which is never a source: flits reach
			// it only from the ring, eight cycles apart, each finding it
			// asleep on the previous flit's ten-cycle output pipeline.
			name: "ring", period: sim.Nanosecond, node: 1,
			inject: []injection{{0, 0, 2}},
			check: func(n *Network) string {
				if len(n.slow) != 0 {
					return "a message took the slow path"
				}
				return ""
			},
		},
		{
			// Router 0 is only ever a source: the second packet is injected
			// while the first drains onto the slow link.
			name: "injection", period: sim.Nanosecond, node: 0, bySource: true,
			inject: []injection{{0, 0, 1}, {25, 0, 1}},
		},
		{
			// Every link delay spans 80 cycles, past the ring. Router 1's own
			// packet keeps it waiting on its +x link while the flits from
			// router 0 land on it by scheduler event.
			name: "slow-path", period: 100, node: 1,
			inject: []injection{{0, 1, 2}, {0, 0, 2}},
			check: func(n *Network) string {
				if n.ringCount != 0 {
					return "a message took the ring"
				}
				return ""
			},
		},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(noskip bool) (*Network, int) {
				cfg := smallConfig(PolicyNone)
				cfg.RouterPeriod = tc.period
				cfg.StartLevel = 0
				cfg.NoSkip = noskip
				cfg.Audit.Enabled = true
				n := mustNew(t, cfg)
				n.BeginMeasurement()
				woken, next := 0, 0
				for i := 0; i < 4_000 && (next < len(tc.inject) || n.InFlight > 0); i++ {
					for ; next < len(tc.inject) && tc.inject[next].cycle == n.Cycle(); next++ {
						n.Inject(tc.inject[next].src, tc.inject[next].dst, n.Now(), -1)
					}
					if tc.check != nil {
						if why := tc.check(n); why != "" {
							t.Fatalf("cycle %d: %s", n.Cycle(), why)
						}
					}
					r := n.Routers[tc.node]
					asleep := n.sleepMask[0]>>uint(tc.node)&1 != 0
					injecting := n.injMask[0]>>uint(tc.node)&1 != 0
					arrived := r.ActivitySnapshot().BufWrites
					n.Step()
					for _, node := range n.sleepers() {
						if n.Routers[node].BufferedFlits() != 0 {
							t.Fatalf("cycle %d: router %d asleep with buffered flits", n.Cycle(), node)
						}
					}
					if asleep && r.ActivitySnapshot().BufWrites > arrived && injecting == tc.bySource {
						woken++
					}
				}
				if n.InFlight != 0 {
					t.Fatalf("noskip=%v: %d packets still in flight", noskip, n.InFlight)
				}
				if v := n.Auditor().Stats().Violations; v != 0 {
					t.Fatalf("noskip=%v: %d audit violations", noskip, v)
				}
				return n, woken
			}
			skip, woken := run(false)
			base, _ := run(true)
			if woken == 0 {
				t.Errorf("no flit ever landed on router %d while it slept", tc.node)
			}
			if s, b := fmt.Sprintf("%d %+v", skip.Cycle(), skip.Snapshot()), fmt.Sprintf("%d %+v", base.Cycle(), base.Snapshot()); s != b {
				t.Errorf("runs diverge:\n skip:   %s\n noskip: %s", s, b)
			}
		})
	}
}

// TestOversleepCaught is the late-wake invariant's fault injection, as
// TestCreditDropCaught is credit conservation's: waking every sleeper one
// router period late moves the results, and the audit must say so rather
// than let the wrong numbers through.
func TestOversleepCaught(t *testing.T) {
	const cycles = 6_000
	run := func(oversleep sim.Duration, noskip, audited bool) (string, []audit.Violation) {
		var got []audit.Violation
		cfg := NewConfig()
		cfg.Policy = PolicyHistory
		cfg.NoSkip = noskip
		if audited {
			cfg.Audit = audit.Options{Enabled: true, OnViolation: func(v audit.Violation) { got = append(got, v) }}
		}
		n := mustNew(t, cfg)
		n.oversleep = oversleep
		p := traffic.NewTwoLevelParams(0.3)
		p.Seed = 7
		m, err := traffic.NewTwoLevel(p, n.Topo)
		if err != nil {
			t.Fatal(err)
		}
		n.Launch(m, sim.Time(cycles+1)*cfg.RouterPeriod)
		n.BeginMeasurement()
		n.Run(cycles)
		return fmt.Sprintf("%+v", n.Snapshot()), got
	}
	period := NewConfig().RouterPeriod
	oracle, _ := run(0, true, false)
	if exact, _ := run(0, false, false); exact != oracle {
		t.Fatalf("exact wakes diverge:\n skip:   %s\n noskip: %s", exact, oracle)
	}
	if _, got := run(0, false, true); len(got) != 0 {
		t.Fatalf("exact wakes: %d violations, first %v", len(got), got[0])
	}
	if late, _ := run(period, false, false); late == oracle {
		t.Error("waking one period late left the results unchanged; the fault injects nothing")
	}
	_, got := run(period, false, true)
	if len(got) == 0 {
		t.Fatal("waking one period late went undetected")
	}
	if v := got[0]; v.Rule != "late-wake" || v.Node < 0 {
		t.Errorf("first violation %v, want a late-wake naming its router", v)
	}
}

// TestSleepFarPathAudited runs sleepers that wake past the wake wheel's span
// (farLocks) under the audit. The late-wake invariant watches every skipped
// router, and the results must equal the NoSkip oracle's.
func TestSleepFarPathAudited(t *testing.T) {
	const cycles = 20_000
	run := func(noskip bool) (string, int) {
		cfg := NewConfig()
		cfg.Policy = PolicyHistory
		cfg.Link.VoltTransition = sim.Microsecond
		farLocks(&cfg)
		cfg.NoSkip = noskip
		cfg.Audit.Enabled = true
		n := mustNew(t, cfg)
		n.Launch(lowLoadTrace(t, cfg, 0.05, cycles), sim.Time(cycles+1)*cfg.RouterPeriod)
		n.BeginMeasurement()
		far := 0
		for n.Cycle() < cycles {
			n.Run(1)
			far += n.farSleepers()
		}
		if v := n.Auditor().Stats().Violations; v != 0 {
			t.Fatalf("noskip=%v: %d audit violations", noskip, v)
		}
		return fmt.Sprintf("%+v", n.Snapshot()), far
	}
	skip, far := run(false)
	base, _ := run(true)
	if far == 0 {
		t.Fatal("no sleeper ever waited past the wake wheel's span; the far path never ran")
	}
	if skip != base {
		t.Errorf("results diverge:\n skip:   %s\n noskip: %s", skip, base)
	}
}
