package noc

import (
	"io"
	"strings"

	"repro/internal/exp"
)

// ExperimentOptions scale a paper-experiment run.
type ExperimentOptions struct {
	// Quick shrinks cycle budgets to smoke-run scale; Full raises them to
	// the paper's 10M-cycle setting. Default is a minutes-scale middle
	// ground.
	Quick, Full bool
	// Seed selects the deterministic random stream family (0 means 1).
	Seed uint64
	// Audit runs every simulation under the runtime invariant checker;
	// the first violation panics. Output is identical either way.
	Audit bool
	// NoCheckpoint disables warmup checkpointing: every simulation point
	// pays for its own warmup instead of forking a shared warmed-up
	// snapshot. Output is identical either way; only speed differs.
	NoCheckpoint bool
	// Tiles runs each simulation on that many tile-parallel blocks with
	// conservative lookahead barriers. Output is byte-identical at every
	// tile count; only speed differs, so it is absent from result cache
	// keys.
	Tiles int
}

// lower maps the public options onto the experiment harness's options.
func (o ExperimentOptions) lower() exp.Options {
	return exp.Options{
		Quick: o.Quick, Full: o.Full, Seed: o.Seed,
		Audit: o.Audit, NoCheckpoint: o.NoCheckpoint,
		Tiles: o.Tiles,
	}
}

// Experiments lists the regenerable paper artifacts ("fig3" .. "fig17",
// "tab1", "tab2", "headline", "abl-*") with one-line descriptions.
func Experiments() []string { return exp.List() }

// RunExperiment regenerates one paper table or figure and prints its text
// tables to w.
func RunExperiment(id string, o ExperimentOptions, w io.Writer) error {
	tabs, err := exp.Run(id, o.lower())
	if err != nil {
		return err
	}
	for _, t := range tabs {
		t.Fprint(w)
	}
	return nil
}

// RunExperimentCSV is RunExperiment with CSV output for plotting tools.
func RunExperimentCSV(id string, o ExperimentOptions, w io.Writer) error {
	tabs, err := exp.Run(id, o.lower())
	if err != nil {
		return err
	}
	for _, t := range tabs {
		t.FprintCSV(w)
	}
	return nil
}

// CachePrefetchEntry reports one persistent cache key a dry-run walk
// consulted and whether it is present in the installed store. Kind is
// "result" for run-cache keys and "trace" for arrival-trace-store keys
// (the traces a cold-result-cache run would replay instead of
// re-capturing).
type CachePrefetchEntry struct {
	Key  string
	Hit  bool
	Kind string
}

// PrefetchExperiments dry-runs the given experiments and reports every
// persistent-cache key they would consult, in sorted key order, without
// running any simulation — a cheap cache-health check: keys reported as
// misses are exactly what a real run would recompute.
func PrefetchExperiments(ids []string, o ExperimentOptions) ([]CachePrefetchEntry, error) {
	entries, err := exp.Prefetch(ids, o.lower())
	if err != nil {
		return nil, err
	}
	out := make([]CachePrefetchEntry, len(entries))
	for i, e := range entries {
		out[i] = CachePrefetchEntry{Key: e.Key, Hit: e.Hit, Kind: e.Kind}
	}
	return out, nil
}

// SetExperimentParallelism bounds how many simulations the experiment
// harness executes concurrently; j <= 0 restores the default, GOMAXPROCS.
// Parallel runs are bit-for-bit identical to sequential runs: every
// simulation point is independently seeded, so execution order cannot leak
// into results.
func SetExperimentParallelism(j int) { exp.SetParallelism(j) }

// TileBarrierCounters summarizes the tile-parallel runs the experiment
// harness executed in this process: planned lookahead windows, actual
// cross-tile merges, and merges elided because no cross-tile traffic was
// pending. All zero when no tiled point simulated (including when every
// point was a cache hit).
type TileBarrierCounters struct {
	Windows, Barriers, Elided int64
}

// ExperimentTileBarrierStats reports the process-wide tiled barrier
// counters accumulated across experiment runs.
func ExperimentTileBarrierStats() TileBarrierCounters {
	s := exp.TileBarrierStats()
	return TileBarrierCounters{Windows: s.Windows, Barriers: s.Barriers, Elided: s.Elided}
}

// RunExperiments regenerates several experiments concurrently (bounded by
// SetExperimentParallelism) and returns each one's rendered output in
// input order. Points shared between experiments simulate once.
func RunExperiments(ids []string, o ExperimentOptions, csv bool) ([]string, error) {
	all, err := exp.RunAll(ids, o.lower())
	if err != nil {
		return nil, err
	}
	out := make([]string, len(all))
	for i, tabs := range all {
		var sb strings.Builder
		for _, t := range tabs {
			if csv {
				t.FprintCSV(&sb)
			} else {
				t.Fprint(&sb)
			}
		}
		out[i] = sb.String()
	}
	return out, nil
}
