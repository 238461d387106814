package noc

import "repro/internal/exp"

// NewWarmedTwoLevel builds a network under the two-level workload and
// brings it to the end of a policy-frozen warmup — DVS decision windows
// never close, links never change level — ready for Measure. The warmed-up
// state therefore depends on the platform and workload but not on the
// policy under study, and this is the same stage the experiment harness
// runs (exp.Warmed): with reuse enabled and a run cache installed, it
// forks the persisted snapshot when any earlier invocation — netsim or a
// figures sweep — that differs only in policy, thresholds or transition
// latencies already paid for this warmup, and captures and persists one
// otherwise; with reuse disabled (or no cache) the warmup always
// simulates. A fork is byte-identical to an uninterrupted run (pinned by
// internal/checkpoint's conformance suite), so reuse changes speed, never
// a result. A workload beyond the trace budget runs its model live.
func NewWarmedTwoLevel(c Config, w TwoLevelWorkload, warmup, measure int64, reuse bool) (*Network, error) {
	lowered, err := c.lower()
	if err != nil {
		return nil, err
	}
	p, err := w.params(lowered.Seed)
	if err != nil {
		return nil, err
	}
	n, err := exp.Warmed(lowered, p, warmup, measure, reuse && exp.DiskCache() != nil)
	if err != nil {
		return nil, err
	}
	return &Network{inner: n}, nil
}
