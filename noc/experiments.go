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
	// ground. Setting both is an error.
	Quick, Full bool
	// Seed selects the deterministic random stream family (0 means 1).
	Seed uint64
	// Audit runs every simulation under the runtime invariant checker;
	// the first violation panics. Output is identical either way.
	Audit bool
}

// lower maps the public options onto the experiment harness's options.
func (o ExperimentOptions) lower() exp.Options {
	return exp.Options{Quick: o.Quick, Full: o.Full, Seed: o.Seed, Audit: o.Audit}
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

// CachePrefetchEntry reports one run-cache key a dry-run walk consulted
// and whether it is present in the installed store.
type CachePrefetchEntry struct {
	Key string
	Hit bool
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
		out[i] = CachePrefetchEntry{Key: e.Key, Hit: e.Hit}
	}
	return out, nil
}

// SetExperimentParallelism bounds how many simulations the experiment
// harness executes concurrently; j <= 0 restores the default, GOMAXPROCS.
// Parallel runs are bit-for-bit identical to sequential runs: every
// simulation point is independently seeded, so execution order cannot leak
// into results.
func SetExperimentParallelism(j int) { exp.SetParallelism(j) }

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
