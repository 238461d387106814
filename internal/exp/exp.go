// Package exp is the experiment harness: one runner per table and figure of
// the paper's evaluation (Section 4), each regenerating the same rows or
// series the paper reports, on scaled cycle budgets.
//
// Experiments are selected by id ("fig10", "tab1", ...); List enumerates
// them. Each returns text tables that cmd/figures prints and that the
// benchmark harness consumes.
package exp

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Options scale an experiment run.
type Options struct {
	// Quick shrinks cycle budgets for laptop-speed smoke runs; Full raises
	// them to the paper's 10M-cycle setting. Default is a minutes-scale
	// middle ground. Run, RunAll and Prefetch refuse both at once.
	Quick, Full bool
	// Seed selects the deterministic random stream family.
	Seed uint64
	// Audit runs every simulation under the runtime invariant checker
	// (internal/audit), which panics on the first violation. Results are
	// identical with or without it; only speed differs.
	Audit bool
}

// validate refuses option sets no budget answers: Quick and Full name
// different budgets, and picking one silently would run the other.
func (o Options) validate() error {
	if o.Quick && o.Full {
		return fmt.Errorf("exp: Quick and Full are exclusive; choose one budget")
	}
	return nil
}

// tinyBudget, when set, shrinks cycle budgets far below -quick. It exists
// only for this package's harness tests (determinism across parallelism
// levels, cache cold/warm behaviour) that need many full sweeps without
// caring about statistical quality. The resolved budget is folded into
// every cache key, so tiny runs can never collide with real ones; tests
// still ResetCaches around toggling to drop the memory the tiny sweep
// occupied.
var tinyBudget bool

// budget reports (warmup, measure) cycles for the options.
func (o Options) budget() (warm, meas int64) {
	if tinyBudget {
		return 3_000, 3_000
	}
	switch {
	case o.Full:
		return 1_000_000, 10_000_000
	case o.Quick:
		return 40_000, 40_000
	default:
		return 80_000, 150_000
	}
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// Table is one printable result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes carry the paper-vs-measured commentary printed under the table.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintln(w)
}

// Runner regenerates one experiment.
type Runner func(o Options) []Table

// registry maps experiment ids to runners; populated by init functions in
// the per-figure files.
var registry = map[string]Runner{}

// describe maps ids to one-line descriptions.
var describe = map[string]string{}

func register(id, desc string, r Runner) {
	registry[id] = r
	describe[id] = desc
}

// List reports registered experiment ids in sorted order with descriptions.
func List() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = fmt.Sprintf("%-10s %s", id, describe[id])
	}
	return out
}

// Run executes the experiment with the given id.
func Run(id string, o Options) ([]Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	r, ok := registry[id]
	if !ok {
		return nil, unknownExperiment(id)
	}
	return r(o), nil
}

func unknownExperiment(id string) error {
	return fmt.Errorf("exp: unknown experiment %q (use one of: %s)",
		id, strings.Join(ids(), ", "))
}

func ids() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// spec describes one simulation run of the paper's platform. All fields
// participate in the run cache key, so experiments sharing an operating
// point simulate once per process.
type spec struct {
	policy   network.PolicyKind
	rate     float64
	tasks    int
	taskDur  sim.Duration
	voltTran sim.Duration
	freqTran int // link cycles
	routing  string
	seed     uint64

	// Optional policy-parameter overrides (zero means Table 1 defaults).
	tlLow, tlHigh float64
	dvsH, dvsW    int

	// Optional platform overrides (zero means the paper's 8x8 mesh with
	// ten-level links).
	levels int
	k, n   int
	torus  bool
}

func defaultSpec(rate float64, policy network.PolicyKind) spec {
	return spec{
		policy:   policy,
		rate:     rate,
		tasks:    100,
		taskDur:  sim.Millisecond,
		voltTran: 10 * sim.Microsecond,
		freqTran: 100,
		routing:  "dor",
	}
}

// noTraceMemo, when set, disables the shared-trace path so every run
// regenerates its workload live. It exists only for the equivalence test
// proving memoized and live runs are byte-identical; callers must
// ResetCaches around toggling it, since cache keys do not include it.
var noTraceMemo bool

// noCheckpoint, when set, makes every simulation point run its own warm-up
// from cycle 0 instead of forking the one its (seed, rate) shares. It
// exists only for the tests pinning that a fork changes no byte and saves
// warm-up work; callers must ResetCaches around toggling it, since cache
// keys do not include it.
var noCheckpoint bool

// build constructs the network and traffic model for a spec, plus the
// scheduler horizon for the caller's Launch. horizonCycles is the number
// of router cycles the caller will run (plus slack); the model's event
// chains are armed against exactly this horizon, so it participates in
// trace identity.
func (s spec) build(o Options, horizonCycles int64) (*network.Network, traffic.Model, sim.Time) {
	cfg := s.config(o)
	horizon := sim.Time(horizonCycles) * cfg.RouterPeriod
	m, _, err := workload(cfg, s.twoLevelParams(o), horizon)
	if err != nil {
		panic(err)
	}
	n, err := network.New(cfg)
	if err != nil {
		panic(err)
	}
	return n, m, horizon
}

// workload returns the traffic model a run launches. It is the memoized
// arrival trace (returned a second time under its own type), shared
// read-only across every run at the same (parameters, shape, horizon) —
// policy ablations pay for workload generation once instead of per
// variant — unless the run must drive the model live: memoization is
// disabled, or the workload exceeds the per-trace budget; the trace is
// then nil, and the memo remembers the refusal, so its stderr note prints
// once per workload. Parameters the model rejects are an error before
// either path, never a note.
func workload(cfg network.Config, p traffic.TwoLevelParams, horizon sim.Time) (traffic.Model, *traffic.Trace, error) {
	m, err := traffic.NewTwoLevel(p, topology.New(cfg.K, cfg.N, cfg.Torus))
	if err != nil {
		return nil, nil, err
	}
	if noTraceMemo {
		return m, nil, nil
	}
	key := traceKey{p: p, k: cfg.K, n: cfg.N, torus: cfg.Torus, horizon: horizon}
	tr := traceMemo.do(key, func() *traffic.Trace {
		cycles := float64(horizon) / float64(p.CyclePeriod)
		if est := p.TotalRate * cycles; est > perTraceArrivals {
			fmt.Fprintf(os.Stderr, "exp: workload rate=%g seed=%d: live workload: estimated %.0f arrivals exceed the %d-arrival per-trace budget\n",
				p.TotalRate, p.Seed, est, perTraceArrivals)
			return nil
		}
		return traffic.Capture(m, horizon)
	})
	if tr == nil {
		return m, nil, nil
	}
	return tr, tr, nil
}

// Trace budgets, in arrivals. An arrival costs ~5 encoded bytes and replay
// streams block by block, so they cover every -full figure point; rate 8.0
// at the full measurement horizon is the one production workload left out
// and runs live.
const (
	perTraceArrivals   = 64_000_000
	totalTraceArrivals = 192_000_000
)

// traceKey identifies one two-level workload: the full parameter set, the
// topology shape, and the horizon.
type traceKey struct {
	p       traffic.TwoLevelParams
	k, n    int
	torus   bool
	horizon sim.Time
}

// traceMemo holds the captured traces, weighted by arrivals, so the
// variants of a sweep share one capture. A nil trace records a workload
// over the per-trace budget; it weighs nothing.
var traceMemo = &sfCache[traceKey, *traffic.Trace]{
	entries: make(map[traceKey]*flight[*traffic.Trace]),
	cap:     totalTraceArrivals,
	cost: func(tr *traffic.Trace) int64 {
		if tr == nil {
			return 0
		}
		return int64(tr.Len())
	},
}

func (s spec) config(o Options) network.Config {
	cfg := network.NewConfig()
	cfg.Policy = s.policy
	cfg.Routing = s.routing
	cfg.Link.VoltTransition = s.voltTran
	cfg.Link.FreqTransitionCycles = s.freqTran
	if s.tlLow != 0 || s.tlHigh != 0 {
		cfg.DVS.TLLow, cfg.DVS.TLHigh = s.tlLow, s.tlHigh
	}
	if s.dvsH != 0 {
		cfg.DVS.H = s.dvsH
	}
	if s.dvsW != 0 {
		cfg.DVS.W = s.dvsW
	}
	if s.levels != 0 {
		cfg.Link.Levels = s.levels
	}
	if s.k != 0 {
		cfg.K = s.k
	}
	if s.n != 0 {
		cfg.N = s.n
		cfg.Router.Ports = 1 + 2*s.n
	}
	cfg.Torus = s.torus
	cfg.Audit.Enabled = o.Audit
	return cfg
}

// twoLevelParams assembles the workload parameters for a spec.
func (s spec) twoLevelParams(o Options) traffic.TwoLevelParams {
	p := traffic.NewTwoLevelParams(s.rate)
	p.AvgTasks = s.tasks
	p.AvgTaskDuration = s.taskDur
	p.Seed = s.seed
	if p.Seed == 0 {
		p.Seed = o.seed()
	}
	return p
}

// cacheKey is the canonical, versioned serialization of one simulation
// point, by construction rather than by list: the resolved cycle budget
// (so Quick, Full and the test-only tiny budget cannot collide), Audit,
// the resolved seed, then every spec field as %#v prints it, so a field
// added to spec is keyed without anyone remembering to. It is both the
// in-memory singleflight key and — fingerprint-prefixed by the store — the
// persistent cache key, so any parameter edit re-simulates exactly the
// points it touches and nothing else. Audit is proven not to change
// results, but it stays in the key to keep it a plain serialization of the
// run spec rather than an equivalence claim.
func (s spec) cacheKey(o Options) string {
	warm, meas := o.budget()
	return fmt.Sprintf("v%d|warm=%d|meas=%d|audit=%t|seed=%d|%#v", SchemaVersion, warm, meas, o.Audit, o.seed(), s)
}

// run executes warmup + measurement and returns the results. Lookups go
// memory -> disk -> compute: runCache (see parallel.go) deduplicates
// concurrent callers inside the process, and its compute function consults
// the persistent store (see diskcache.go) before simulating, so the
// singleflight guarantee covers both layers — one disk read or one
// simulation per point, no matter how many goroutines ask.
func run(s spec, o Options) network.Results {
	key := "point|" + s.cacheKey(o)
	return runCache.do(key, func() network.Results {
		return cached(key, func() (r network.Results) {
			withSimSlot(func() {
				r = simulate(s, o)
			})
			return r
		})
	})
}

// Point runs the paper's platform at one two-level-workload operating
// point: programmatic access for benchmarks and downstream tooling.
func Point(rate float64, policy network.PolicyKind, o Options) network.Results {
	return run(defaultSpec(rate, policy), o)
}

// f formats a float compactly.
func f(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

// FprintCSV renders the table as RFC-4180-ish CSV (title and notes as
// comment lines), for piping into plotting tools.
func (t *Table) FprintCSV(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	write := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			fmt.Fprint(w, c)
		}
		fmt.Fprintln(w)
	}
	write(t.Header)
	for _, row := range t.Rows {
		write(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintln(w)
}
