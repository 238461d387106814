// Command run is the repository's benchmark driver: one invocation runs one
// named workload on inputs made from -seed, for about -seconds seconds,
// checks every output, and prints the metrics.
//
//	benchmarks/run.sh --workload point-sat --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. The exit code is non-zero
// when any operation failed a check.
//
// The load is a closed loop with one client: the next rep starts when the
// previous one has returned. GOMAXPROCS is pinned to 1. The simulator is
// deterministic, so every rep of a run is identical work and rep_wall_s is
// the minimum over the reps; nothing is normalised, no environment variable
// is read, and no option changes what is measured.
//
// This package imports the public API (repro/noc) and, because a binary
// built here carries no VCS stamp and noc.EnableRunCache refuses those,
// the three calls needed to install a result cache by hand:
// runcache.Open, exp.SetDiskCache and exp.ResetCaches. Everything else a
// layer offers is measured from that layer's own probe under ../layers.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/benchmarks/internal/harness"
	"repro/noc"
)

// minReps is the fewest timed reps a run reports on, whatever -seconds
// says, so that a minimum and a median exist.
const minReps = 3

// setupPasses is how many times a point workload is set up; setup_s is
// their median. A sweep is set up once: its set-up is a whole cold pass.
const setupPasses = 3

// tracePairs bounds a traced run: at most this many traced reps, each
// paired with an untraced one for the overhead figure.
const tracePairs = 5

// opResult is what one operation (a set-up pass or a rep) produced.
type opResult struct {
	wall   time.Duration
	alloc  uint64 // TotalAlloc delta across the timed region
	digest string // of the simulated results or the rendered bytes
	err    error  // a failed check or a returned error

	// Point workloads (and a sweep's reference point).
	res  noc.Results
	skip noc.SkipStats
	// Sweep workloads: the result store's counters for this operation.
	cache noc.CacheStats
}

// workload is one named set of inputs.
type workload interface {
	// setup prepares the workload and returns one result per set-up pass;
	// the last pass's digest is the reference every rep must reproduce.
	setup(seed uint64, tr *harness.Tracer, parent *harness.Span) []opResult
	// rep runs one timed operation. ref is the reference digest.
	rep(seed uint64, ref string, tr *harness.Tracer, parent *harness.Span, id int) opResult
	// point returns the single-point configuration the workload's
	// simulated statistics and the network probe are taken on.
	point() point
}

var workloads = map[string]func(tmp string) workload{
	"point-sat":  func(string) workload { return pointSat },
	"point-low":  func(string) workload { return pointLow },
	"sweep-cold": func(tmp string) workload { return &sweep{tmp: tmp} },
	"sweep-warm": func(tmp string) workload { return &sweep{tmp: tmp, warm: true} },
}

func main() {
	name := flag.String("workload", "", "point-sat | point-low | sweep-cold | sweep-warm")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1: record spans, run the per-layer probes and print the per-layer metrics")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok || *seed == 0 || *seconds < 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: run -workload point-sat|point-low|sweep-cold|sweep-warm [-seed n>0] [-seconds s] [-trace 0|1]")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(1)
	noc.SetExperimentParallelism(1)

	// The binary lives in <build>/bin; probes are built beside it and span
	// files go to <build>/traces. Temporary directories come from
	// os.MkdirTemp, which run.sh points inside the checkout.
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	binDir := filepath.Dir(exe)
	buildDir := filepath.Dir(binDir)

	r := &run{name: *name, seed: *seed, budget: time.Duration(*seconds) * time.Second}
	r.aluStart, r.chaseStart = harness.Canaries(3)
	if *trace != 0 {
		r.tr = harness.NewTracer()
	}
	tmp, err := os.MkdirTemp("", "bench-"+*name+"-")
	if err != nil {
		fatal(err)
	}
	w := mk(tmp)
	r.execute(w)
	if err := os.RemoveAll(tmp); err != nil {
		fmt.Fprintln(os.Stderr, "run:", err)
	}
	r.aluEnd, r.chaseEnd = harness.Canaries(3)

	var metrics harness.Metrics
	if r.tr != nil {
		metrics = r.perLayer(w, binDir)
		dir := filepath.Join(buildDir, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.json", *name, *seed))
		if err := r.tr.WriteFile(path, *name, *seed); err != nil {
			fatal(err)
		}
		fmt.Printf("spans: %d written to %s\n", len(r.tr.Spans()), path)
	} else {
		metrics = r.endToEnd()
	}
	r.report(metrics)
	res := harness.Result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	fmt.Println(res.Line())
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "run:", err)
	os.Exit(1)
}

// run is the state of one invocation.
type run struct {
	name   string
	seed   uint64
	budget time.Duration
	tr     *harness.Tracer // nil in an untraced run

	setups    []opResult
	reps      []opResult // untraced reps: every end-to-end metric comes from these
	tracedOps []opResult // traced reps (traced runs only)
	liveHeap  uint64
	attempted int
	failed    int

	aluStart, chaseStart, aluEnd, chaseEnd []float64
}

// check counts one operation and reports a failed one.
func (r *run) check(kind string, o opResult) {
	r.attempted++
	if o.err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "FAILED %s: %v\n", kind, o.err)
	}
}

// execute sets the workload up and runs the timed reps.
func (r *run) execute(w workload) {
	root := r.tr.Start("run", nil, 0)
	defer root.End()

	sp := r.tr.Start("setup", root, 0)
	r.setups = w.setup(r.seed, r.tr, sp)
	sp.End()
	for _, o := range r.setups {
		r.check("set-up pass", o)
	}
	ref := r.setups[len(r.setups)-1].digest
	for _, o := range r.setups {
		if o.err == nil && o.digest != ref {
			r.failed++
			fmt.Fprintf(os.Stderr, "FAILED set-up pass: digest %s differs from %s\n", o.digest, ref)
		}
	}

	start := time.Now()
	var last time.Duration
	for i := 1; ; i++ {
		elapsed := time.Since(start)
		if r.tr != nil {
			if len(r.tracedOps) >= tracePairs || (len(r.tracedOps) >= 1 && elapsed > r.budget/2) {
				break
			}
		} else if len(r.reps) >= minReps && elapsed+last > r.budget {
			break
		}
		// The untraced rep gets a span of its own in a traced run, so that
		// the root's self time stays the harness's own cost.
		sp := r.tr.Start("rep-untraced", root, i)
		o := w.rep(r.seed, ref, nil, nil, i)
		sp.End()
		r.check(fmt.Sprintf("rep %d", i), o)
		r.reps = append(r.reps, o)
		last = o.wall
		if r.tr != nil {
			sp := r.tr.Start("rep", root, i)
			o := w.rep(r.seed, ref, r.tr, sp, i)
			sp.End()
			r.check(fmt.Sprintf("traced rep %d", i), o)
			r.tracedOps = append(r.tracedOps, o)
		}
	}

	// The last rep's results are still referenced from r.reps, as a
	// caller's would be.
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.liveHeap = m.HeapAlloc
}

// timed runs f between a forced collection and two reads of the
// allocator's counters, all outside the timed region.
func timed(f func()) (wall time.Duration, alloc uint64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	f()
	wall = time.Since(t)
	runtime.ReadMemStats(&m1)
	return wall, m1.TotalAlloc - m0.TotalAlloc
}

func walls(ops []opResult) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.wall.Seconds()
	}
	return out
}

// endToEnd is the metric set of an untraced run.
func (r *run) endToEnd() harness.Metrics {
	m := harness.Metrics{}
	m.Set("setup_s", harness.Median(walls(r.setups)), "s")
	m.Set("rep_wall_s", harness.Min(walls(r.reps)), "s")
	return m
}

// report prints every metric by name with its unit, and what explains it.
func (r *run) report(m harness.Metrics) {
	fmt.Printf("workload %s  seed %d  GOMAXPROCS %d  nproc %d  %s\n", r.name, r.seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	fmt.Printf("operations: %d attempted, %d failed\n", r.attempted, r.failed)
	fmt.Printf("sim_digest %s\n", r.setups[len(r.setups)-1].digest)
	s := harness.Summarize(walls(r.reps))
	fmt.Printf("rep wall: min %.6f s  median %.6f s  p90 %.6f s  R %d\n", s.Min, s.Median, s.P90, s.N)
	ss := harness.Summarize(walls(r.setups))
	fmt.Printf("set-up:   min %.6f s  median %.6f s  passes %d\n", ss.Min, ss.Median, ss.N)
	fmt.Printf("canaries (ms, min/median): alu start %.2f/%.2f end %.2f/%.2f  chase start %.2f/%.2f end %.2f/%.2f\n",
		harness.Min(r.aluStart), harness.Median(r.aluStart), harness.Min(r.aluEnd), harness.Median(r.aluEnd),
		harness.Min(r.chaseStart), harness.Median(r.chaseStart), harness.Min(r.chaseEnd), harness.Median(r.chaseEnd))
	for _, name := range m.Names() {
		fmt.Printf("%-40s %14.6f %s\n", name, m[name].Value, m[name].Unit)
	}
}
