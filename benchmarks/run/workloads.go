package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/benchmarks/internal/harness"
	"repro/internal/exp"
	"repro/internal/runcache"
	"repro/noc"
)

// point is one simulation of the paper's default platform (8x8 mesh,
// history policy) under the two-level workload with 100 task sessions:
// a policy-frozen warm-up through noc.NewWarmedTwoLevel(reuse=false), then
// noc.Measure. It is what one `netsim` invocation does between parsing its
// flags and printing its summary.
type point struct {
	rate       float64
	taskDur    time.Duration
	warm, meas int64
}

// pointSat is past saturation: every router is busy every cycle, so route,
// VC and switch allocation, the crossbar and link serialisation do nearly
// all the work, and the skip core, the scheduler and the harness almost
// none.
var pointSat = point{rate: 4.0, taskDur: time.Millisecond, warm: 10_000, meas: 20_000}

// pointLow is near idle: most router ticks are elided and quiescent
// stretches fast-forward, so the scheduler, trace replay, fast-forward
// planning, the DVS descent to the lowest level and the policy windows
// dominate while the router datapath does little. Task sessions last
// 10 us, the short end of the paper's range: over 800 000 cycles a run
// then averages some 8 000 sessions and its packet count moves about 1 %
// with the seed, where 1 ms sessions (100 of them set the whole run) moved
// it, and rep_wall_s with it, by 8 %.
var pointLow = point{rate: 0.05, taskDur: 10 * time.Microsecond, warm: 200_000, meas: 600_000}

func (p point) point() point { return p }

// simulate runs the point once.
func (p point) simulate(seed uint64, tr *harness.Tracer, parent *harness.Span, id int) opResult {
	cfg := noc.DefaultConfig()
	cfg.Seed = seed
	w := noc.TwoLevelWorkload{Rate: p.rate, Tasks: 100, TaskDuration: p.taskDur}
	var o opResult
	o.wall, o.alloc = timed(func() {
		sp := tr.Start("noc.NewWarmedTwoLevel", parent, id)
		n, err := noc.NewWarmedTwoLevel(cfg, w, p.warm, p.meas, false)
		sp.End()
		if err != nil {
			o.err = err
			return
		}
		sp = tr.Start("noc.Measure", parent, id)
		o.res = n.Measure(p.meas)
		sp.End()
		o.skip = n.SkipStats()
	})
	if o.err != nil {
		return o
	}
	o.digest = digest(fmt.Sprintf("%+v", o.res))
	if o.res.DeliveredPackets > o.res.InjectedPackets || o.res.DeliveredPackets <= 0 {
		o.err = fmt.Errorf("delivered %d of %d injected packets", o.res.DeliveredPackets, o.res.InjectedPackets)
	}
	return o
}

// setup drops the in-process memos, so the pass captures the arrival
// trace, builds the network and runs one full rep, as the first point of a
// process does. The timed reps that follow replay the memoized trace.
func (p point) setup(seed uint64, tr *harness.Tracer, parent *harness.Span) []opResult {
	out := make([]opResult, setupPasses)
	for i := range out {
		sp := tr.Start("setup-pass", parent, 0)
		t := time.Now()
		rs := tr.Start("exp.ResetCaches", sp, 0)
		exp.ResetCaches()
		rs.End()
		out[i] = p.simulate(seed, tr, sp, 0)
		out[i].wall = time.Since(t)
		sp.End()
	}
	return out
}

func (p point) rep(seed uint64, ref string, tr *harness.Tracer, parent *harness.Span, id int) opResult {
	o := p.simulate(seed, tr, parent, id)
	sp := tr.Start("compare", parent, id)
	if o.err == nil && o.digest != ref {
		o.err = fmt.Errorf("digest %s differs from the reference %s", o.digest, ref)
	}
	sp.End()
	return o
}

// sweepExperiment is the Pareto curve: threshold settings I-VI plus the
// non-DVS baseline at one saturated operating point, seven simulations
// that share one trace and one policy-frozen warm-up.
const sweepExperiment = "fig15"

// warmRegens is how many warm regenerations make one sweep-warm rep, so
// that a rep is long enough to time.
const warmRegens = 500

// storeFingerprint stands in for the VCS revision a stamped binary would
// mix into every cache key.
const storeFingerprint = "benchmarks/v1"

// sweep regenerates sweepExperiment at the -quick budget through
// noc.RunExperiments, one simulation at a time. Cold, every rep starts
// from dropped memos and an empty result cache in a fresh directory: what
// a user pays for a figure the first time. Warm, every regeneration
// reopens the directory the set-up pass filled, drops the memos and
// renders from disk with zero simulations.
type sweep struct {
	tmp     string // parent of every cache directory of this run
	warm    bool
	ref     string // the set-up pass's rendering
	warmDir string // the directory the set-up pass filled
	first   noc.CacheStats
}

func (s *sweep) point() point { return pointSat }

// regenerate opens the store at dir and renders the experiment.
func (s *sweep) regenerate(seed uint64, dir string, tr *harness.Tracer, parent *harness.Span, id int) (string, noc.CacheStats, error) {
	sp := tr.Start("exp.ResetCaches", parent, id)
	exp.ResetCaches()
	sp.End()
	sp = tr.Start("runcache.Open", parent, id)
	store, err := runcache.Open(dir, runcache.Options{Fingerprint: storeFingerprint})
	sp.End()
	if err != nil {
		return "", noc.CacheStats{}, err
	}
	exp.SetDiskCache(store)
	defer exp.SetDiskCache(nil)
	sp = tr.Start("noc.RunExperiments", parent, id)
	out, err := noc.RunExperiments([]string{sweepExperiment}, noc.ExperimentOptions{Quick: true, Seed: seed}, false)
	sp.End()
	if err != nil {
		return "", noc.CacheStats{}, err
	}
	return out[0], noc.RunCacheStats(), nil
}

// coldPass regenerates into a fresh directory and returns it.
func (s *sweep) coldPass(seed uint64, tr *harness.Tracer, parent *harness.Span, id int) (opResult, string) {
	dir, err := os.MkdirTemp(s.tmp, "cache-")
	if err != nil {
		return opResult{err: err}, ""
	}
	var o opResult
	var rendered string
	o.wall, o.alloc = timed(func() {
		rendered, o.cache, o.err = s.regenerate(seed, dir, tr, parent, id)
	})
	if o.err != nil {
		return o, dir
	}
	o.digest = digest(rendered)
	sp := tr.Start("compare", parent, id)
	defer sp.End()
	switch {
	case rendered == "":
		o.err = errors.New("empty rendering")
	case s.ref != "" && rendered != s.ref:
		o.err = errors.New("rendered bytes differ from the set-up pass")
	case o.cache.Hits != 0 || o.cache.Puts == 0 || o.cache.Misses == 0:
		o.err = fmt.Errorf("cold pass saw cache counters %+v, want hits=0 and puts, misses > 0", o.cache)
	case s.ref != "" && (o.cache.Puts != s.first.Puts || o.cache.Misses != s.first.Misses):
		o.err = fmt.Errorf("cold pass saw cache counters %+v, the set-up pass %+v", o.cache, s.first)
	}
	if s.ref == "" {
		s.ref, s.first = rendered, o.cache
	}
	return o, dir
}

func (s *sweep) setup(seed uint64, tr *harness.Tracer, parent *harness.Span) []opResult {
	o, dir := s.coldPass(seed, tr, parent, 0)
	if s.warm {
		s.warmDir = dir
	} else if dir != "" {
		os.RemoveAll(dir)
	}
	return []opResult{o}
}

func (s *sweep) rep(seed uint64, ref string, tr *harness.Tracer, parent *harness.Span, id int) opResult {
	if !s.warm {
		o, dir := s.coldPass(seed, tr, parent, id)
		if dir != "" {
			os.RemoveAll(dir)
		}
		return o
	}
	var o opResult
	o.digest = ref
	o.wall, o.alloc = timed(func() {
		for i := 0; i < warmRegens && o.err == nil; i++ {
			// Spans for the first regeneration only: five hundred
			// identical ones would be the tracer's cost, not the rep's.
			t := tr
			if i > 0 {
				t = nil
			}
			var rendered string
			rendered, o.cache, o.err = s.regenerate(seed, s.warmDir, t, parent, id)
			switch {
			case o.err != nil:
			case rendered != s.ref:
				o.err = errors.New("rendered bytes differ from the cold pass")
			case o.cache.Misses != 0 || o.cache.Puts != 0 || o.cache.Hits == 0:
				o.err = fmt.Errorf("warm regeneration saw cache counters %+v, want misses=0, puts=0, hits > 0", o.cache)
			}
		}
	})
	return o
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}
