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
	"sync"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Options scale an experiment run.
type Options struct {
	// Quick shrinks cycle budgets for laptop-speed smoke runs; Full raises
	// them to the paper's 10M-cycle setting. Default is a minutes-scale
	// middle ground.
	Quick, Full bool
	// Seed selects the deterministic random stream family.
	Seed uint64
	// Audit runs every simulation under the runtime invariant checker
	// (internal/audit), which panics on the first violation. Results are
	// identical with or without it; only speed differs.
	Audit bool
	// NoCheckpoint disables the warmup checkpoint/fork fast path: every
	// simulation point then executes its own warmup from cycle 0 instead of
	// forking a shared warmed-up snapshot. Results are identical either way
	// (the fork-equivalence conformance suite in internal/checkpoint pins
	// byte-identity); only speed differs. It is deliberately absent from
	// cache keys so both modes share cached results.
	NoCheckpoint bool
	// Tiles partitions each simulation into that many tile-parallel blocks
	// (network.Config.Tiles). Results are byte-identical at every tile
	// count (the tile-equivalence suite pins this); only speed differs, so
	// like NoCheckpoint it is deliberately absent from cache keys. Points
	// whose workload exceeds the trace budget fall back to untiled (the
	// tiled engine replays recorded traces only), and tiled points run the
	// straight warmup path (a tiled network refuses checkpoint capture).
	Tiles int
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

// build constructs the network and traffic model for a spec, plus the
// scheduler horizon for the caller's Launch. horizonCycles is the number
// of router cycles the caller will run (plus slack); the model's event
// chains are armed against exactly this horizon, so it participates in
// trace identity.
func (s spec) build(o Options, horizonCycles int64) (*network.Network, traffic.Model, sim.Time) {
	cfg := s.config(o)
	horizon := sim.Time(horizonCycles) * cfg.RouterPeriod
	m, _, err := workload(&cfg, s.twoLevelParams(o), horizon)
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
// disabled, or the workload exceeds the trace budget; the trace is then
// nil. The decision comes before network construction
// because a tiled network replays recorded traces only: a live run
// degrades cfg to the untiled engine — same bytes, one scheduler — with
// one stderr note per workload and reason (silent fallback hid exactly the
// -full points users most expect to parallelize). Parameters the model
// rejects are an error before either path, never a note.
func workload(cfg *network.Config, p traffic.TwoLevelParams, horizon sim.Time) (traffic.Model, *traffic.Trace, error) {
	topo := topology.New(cfg.K, cfg.N, cfg.Torus)
	m, err := traffic.NewTwoLevel(p, topo)
	if err != nil {
		return nil, nil, err
	}
	if !noTraceMemo {
		tr, reason := traffic.SharedTwoLevelTrace(p, topo, horizon)
		if tr != nil {
			return tr, tr, nil
		}
		if _, dup := traceFallbackNotes.LoadOrStore(fmt.Sprintf("%g|%d|%s", p.TotalRate, p.Seed, reason), true); !dup {
			fmt.Fprintf(os.Stderr, "exp: workload rate=%g seed=%d: live workload (trace and tile eligibility lost): %s\n",
				p.TotalRate, p.Seed, reason)
		}
	}
	cfg.Tiles = 0
	return m, nil, nil
}

// traceFallbackNotes dedupes workload's notes: a sweep asks for the
// same oversized workload once per policy variant, and the user needs the
// fact once.
var traceFallbackNotes sync.Map

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
	if o.Tiles > 1 {
		cfg.Tiles = o.Tiles
	}
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
// point: every spec field plus every Options field that reaches the
// simulation, with the resolved cycle budget folded in (so Quick, Full and
// the test-only tiny budget cannot collide) and seeds normalized. It is
// both the in-memory singleflight key and — fingerprint-prefixed by the
// store — the persistent cache key, so any parameter edit re-simulates
// exactly the points it touches and nothing else. Audit is proven not to
// change results, but it stays in the key to keep it a plain serialization
// of the run spec rather than an equivalence claim.
// Tiles is deliberately absent (like NoCheckpoint): tile counts are an
// execution strategy, not part of the run spec, and keying them would
// split the cache across identical results.
func (s spec) cacheKey(o Options) string {
	warm, meas := o.budget()
	return fmt.Sprintf("v%d|warm=%d|meas=%d|audit=%t|seed=%d|"+
		"policy=%d|rate=%g|tasks=%d|taskdur=%d|volttran=%d|freqtran=%d|routing=%s|specseed=%d|"+
		"tllow=%g|tlhigh=%g|dvsh=%d|dvsw=%d|levels=%d|k=%d|n=%d|torus=%t",
		SchemaVersion, warm, meas, o.Audit, o.seed(),
		s.policy, s.rate, s.tasks, int64(s.taskDur), int64(s.voltTran), s.freqTran, s.routing, s.seed,
		s.tlLow, s.tlHigh, s.dvsH, s.dvsW, s.levels, s.k, s.n, s.torus)
}

// run executes warmup + measurement and returns the results. Lookups go
// memory -> disk -> compute: runCache (see parallel.go) deduplicates
// concurrent callers inside the process, and its compute function consults
// the persistent store (see diskcache.go) before simulating, so the
// singleflight guarantee covers both layers — one disk read or one
// simulation per point, no matter how many goroutines ask.
func run(s spec, o Options) network.Results {
	prefetchRecordTrace(s, o) // no-op outside a prefetch walk
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
