// Package exp is the experiment harness: one runner per table and figure of
// the paper's evaluation (Section 4), each regenerating the same rows or
// series the paper reports, on scaled cycle budgets.
//
// Experiments are selected by id ("fig10", "tab1", ...); List enumerates
// them. Each returns text tables that cmd/figures prints and that the
// benchmark harness consumes.
//
// A Session holds everything a run shares with the runs around it: the
// persistent store, the worker gate, the memos of results,
// characterization sets, warm snapshots and traces, and the warm-up
// counter. Sessions share nothing, so a caller that wants cold caches
// takes a fresh one. The package-level entry points (Run, RunAll,
// Prefetch, Warmed, Point, ...) act on one default session, which
// ResetCaches, SetDiskCache and SetParallelism replace.
package exp

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

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

// budget reports (warmup, measure) cycles for the options.
func (ses *Session) budget(o Options) (warm, meas int64) {
	if ses.tinyBudget {
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

// Fprint renders the table with aligned columns, in one Write. Widths are
// measured in bytes and cells padded by runes, as fmt's %-*s pads them;
// each line loses its trailing spaces.
func (t *Table) Fprint(w io.Writer) {
	// Column lists live on the stack up to 16 columns.
	var wbuf [16]int
	var sbuf [16]string
	widths := wbuf[:0]
	for _, h := range t.Header {
		widths = append(widths, len(h))
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	size := len(t.Title) + 8
	for _, wd := range widths {
		size += (wd + 2) * (len(t.Rows) + 2)
	}
	for _, n := range t.Notes {
		size += len(n) + 3
	}
	b := make([]byte, 0, size)
	b = append(append(append(b, "== "...), t.Title...), " ==\n"...)
	line := func(cells []string) {
		start := len(b)
		for i, c := range cells {
			if i > 0 {
				b = append(b, "  "...)
			}
			b = append(b, c...)
			if i < len(widths) {
				for n := utf8.RuneCountInString(c); n < widths[i]; n++ {
					b = append(b, ' ')
				}
			}
		}
		for len(b) > start && b[len(b)-1] == ' ' {
			b = b[:len(b)-1]
		}
		b = append(b, '\n')
	}
	line(t.Header)
	sep := sbuf[:0]
	for _, wd := range widths {
		sep = append(sep, strings.Repeat("-", wd))
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		b = append(append(append(b, "# "...), n...), '\n')
	}
	b = append(b, '\n')
	w.Write(b)
}

// Runner regenerates one experiment on a session.
type Runner func(ses *Session, o Options) []Table

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
func (ses *Session) Run(id string, o Options) ([]Table, error) {
	if err := checkRun([]string{id}, o); err != nil {
		return nil, err
	}
	return registry[id](ses, o), nil
}

// checkRun refuses exclusive budgets and unknown ids before anything
// runs.
func checkRun(ids []string, o Options) error {
	if err := o.validate(); err != nil {
		return err
	}
	for _, id := range ids {
		if _, ok := registry[id]; !ok {
			return unknownExperiment(id)
		}
	}
	return nil
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
// point simulate once per session.
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

// workload returns the traffic model a run launches. It is the session's
// memoized arrival trace (returned a second time under its own type),
// shared read-only across every run at the same (parameters, shape,
// horizon) — policy ablations pay for workload generation once instead of
// per variant — unless the run must drive the model live: memoization is
// disabled, or the workload exceeds the per-trace budget; the trace is
// then nil, and the memo remembers the refusal, so its stderr note prints
// once per workload. Parameters the model rejects are an error before
// either path, never a note.
func (ses *Session) workload(cfg network.Config, p traffic.TwoLevelParams, horizon sim.Time) (traffic.Model, *traffic.Trace, error) {
	m, err := traffic.NewTwoLevel(p, topology.New(cfg.K, cfg.N, cfg.Torus))
	if err != nil {
		return nil, nil, err
	}
	if ses.noTraceMemo {
		return m, nil, nil
	}
	key := traceKey{p: p, k: cfg.K, n: cfg.N, torus: cfg.Torus, horizon: horizon}
	tr := ses.traceMemo.do(key, func() *traffic.Trace {
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

// traceArrivals weighs a trace in the session's traceMemo. A nil trace
// records a workload over the per-trace budget; it weighs nothing.
func traceArrivals(tr *traffic.Trace) int64 {
	if tr == nil {
		return 0
	}
	return int64(tr.Len())
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
// point: the resolved cycle budget (so Quick, Full and the test-only tiny
// budget cannot collide), Audit, the resolved seed, then every spec field
// by name, floats in the shortest form that round-trips and routing
// quoted, so distinct specs give distinct keys. It is both the in-memory
// singleflight key and — fingerprint-prefixed by the store — the
// persistent cache key, so any parameter edit re-simulates exactly the
// points it touches and nothing else. Audit is proven not to change
// results, but it stays in the key to keep it a plain serialization of the
// run spec rather than an equivalence claim.
func (ses *Session) cacheKey(s spec, o Options) string { return ses.prefixedKey("", s, o) }

// prefixedKey is prefix followed by cacheKey, built in one stack buffer:
// a warm regeneration builds one key per point it reads, so the key costs
// one allocation, the string itself.
func (ses *Session) prefixedKey(prefix string, s spec, o Options) string {
	// Appended field by field: fmt's %#v of the spec cost three times as
	// much. TestSpecKeyIsComplete perturbs every spec and Options field
	// and fails on any the list below leaves out.
	var buf [256]byte
	b := append(buf[:0], prefix...)
	warm, meas := ses.budget(o)
	b = append(b, 'v')
	b = strconv.AppendInt(b, SchemaVersion, 10)
	b = keyInt(b, "warm", warm)
	b = keyInt(b, "meas", meas)
	b = strconv.AppendBool(append(b, "|audit="...), o.Audit)
	b = strconv.AppendUint(append(b, "|seed="...), o.seed(), 10)
	b = keyInt(b, "policy", int64(s.policy))
	b = keyFloat(b, "rate", s.rate)
	b = keyInt(b, "tasks", int64(s.tasks))
	b = keyInt(b, "taskDur", int64(s.taskDur))
	b = keyInt(b, "voltTran", int64(s.voltTran))
	b = keyInt(b, "freqTran", int64(s.freqTran))
	b = strconv.AppendQuote(append(b, "|routing="...), s.routing)
	b = strconv.AppendUint(append(b, "|seed="...), s.seed, 10)
	b = keyFloat(b, "tlLow", s.tlLow)
	b = keyFloat(b, "tlHigh", s.tlHigh)
	b = keyInt(b, "dvsH", int64(s.dvsH))
	b = keyInt(b, "dvsW", int64(s.dvsW))
	b = keyInt(b, "levels", int64(s.levels))
	b = keyInt(b, "k", int64(s.k))
	b = keyInt(b, "n", int64(s.n))
	b = strconv.AppendBool(append(b, "|torus="...), s.torus)
	return string(b)
}

func keyInt(b []byte, name string, v int64) []byte {
	b = append(append(append(b, '|'), name...), '=')
	return strconv.AppendInt(b, v, 10)
}

// keyFloat appends v in the shortest form that round-trips ('g', -1). An
// integral v with |v| < 1e6, negative zero aside, is printed by 'g' as
// the integer itself, so it is appended as one without the float
// formatter (rates and other integral key floats take this path).
func keyFloat(b []byte, name string, v float64) []byte {
	b = append(append(append(b, '|'), name...), '=')
	if v > -1e6 && v < 1e6 && float64(int64(v)) == v && (v != 0 || !math.Signbit(v)) {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// run executes warmup + measurement and returns the results. Lookups go
// memory -> disk -> compute: the session's runCache deduplicates
// concurrent callers, and its compute function consults the persistent
// store (see diskcache.go) before simulating, so the singleflight
// guarantee covers both layers — one disk read or one simulation per
// point, no matter how many goroutines ask.
func (ses *Session) run(s spec, o Options) network.Results {
	key := ses.prefixedKey("point|", s, o)
	return ses.runCache.do(key, func() network.Results {
		return cached(ses, key, func() (r network.Results) {
			ses.withSimSlot(func() {
				r = ses.simulate(s, o)
			})
			return r
		})
	})
}

// Point runs the paper's platform at one two-level-workload operating
// point: programmatic access for benchmarks and downstream tooling.
func (ses *Session) Point(rate float64, policy network.PolicyKind, o Options) network.Results {
	return ses.run(defaultSpec(rate, policy), o)
}

// f formats v with prec digits after the decimal point, byte for byte as
// strconv.FormatFloat(v, 'f', prec, 64) does.
func f(v float64, prec int) string {
	var buf [32]byte
	return string(appendFixed(buf[:0], v, prec))
}

// fx formats a factor, f(v, prec) followed by "X", in one allocation.
func fx(v float64, prec int) string {
	var buf [32]byte
	return string(append(appendFixed(buf[:0], v, prec), 'X'))
}

// appendFixed appends v in strconv's 'f' format with prec decimals.
// strconv sends every 'f' with a precision through its multiprecision
// decimal (bigFtoa); for |v| < 1e12 and prec <= 6 this rounds |v|·10^prec
// to an integer exactly instead, in 128-bit fixed point and half to even
// as strconv rounds, and prints that integer with the point put back.
// Anything else (NaN, the infinities, larger values or precisions) goes to
// strconv. FuzzFixed compares the two.
func appendFixed(b []byte, v float64, prec int) []byte {
	if prec < 0 || prec > 6 || !(math.Abs(v) < 1e12) {
		return strconv.AppendFloat(b, v, 'f', prec, 64)
	}
	// |v| = mant·2^-shift for a normal v, with shift >= 13 since
	// |v| < 2^40. Zero and the subnormals get shift 1075, which rounds
	// them to 0 as it should: at prec <= 6 anything below 5e-7 does.
	fb := math.Float64bits(v)
	mant, shift := fb&(1<<52-1)|1<<52, 1075-uint(fb>>52&0x7ff)
	scale := uint64(1)
	for range prec {
		scale *= 10
	}
	// q, rem = divmod(mant·scale, 2^shift); half = 2^(shift-1). The
	// product is below 2^73, so a shift of 128 or more leaves q = 0 and a
	// remainder below half.
	hi, lo := bits.Mul64(mant, scale)
	var q, remHi, remLo, halfHi, halfLo uint64
	switch {
	case shift >= 128:
		remHi, remLo, halfHi = hi, lo, 1<<63
	case shift >= 64:
		s := shift - 64
		q, remHi, remLo = hi>>s, hi&(1<<s-1), lo
		if s == 0 {
			halfLo = 1 << 63
		} else {
			halfHi = 1 << (s - 1)
		}
	default:
		q, remLo, halfLo = hi<<(64-shift)|lo>>shift, lo&(1<<shift-1), 1<<(shift-1)
	}
	if remHi > halfHi || remHi == halfHi && (remLo > halfLo || remLo == halfLo && q&1 == 1) {
		q++
	}

	if fb>>63 != 0 {
		b = append(b, '-') // strconv keeps the sign of -0 and of negatives that round to 0
	}
	b = strconv.AppendUint(b, q/scale, 10)
	if prec == 0 {
		return b
	}
	var frac [6]byte
	for i, r := prec-1, q%scale; i >= 0; i, r = i-1, r/10 {
		frac[i] = '0' + byte(r%10)
	}
	return append(append(b, '.'), frac[:prec]...)
}

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
