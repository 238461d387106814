// Package checkpoint captures a warmed-up simulation and forks it: a
// Snapshot is a versioned, self-describing image of complete network state
// (router SoA arrays, DVS link state machines, scheduler event keys,
// in-flight flit trains, source queues, statistics accumulators) such that
// a run forked from the snapshot is byte-identical to one that ran
// uninterrupted from cycle 0. Experiment sweeps use it to pay for a warmup
// once per (seed, rate) and fork the warmed state per policy variant.
//
// What is deliberately not captured: DVS controller history windows
// (captures are refused once a policy window has closed — experiment
// warmups run under network.SetDVSHold, so the state never exists), live
// traffic-model event chains (only recorded traces, whose replay walk is
// resumable, may be attached), an attached event trace, and the trace's
// arrival data itself (the forker re-derives the trace from its parameters
// and the restore verifies identity by name, length and horizon).
package checkpoint

import (
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/traffic"
)

// Snapshot is a captured simulation state. It intentionally carries no
// network.Config — the capture's configuration identity is the cache key
// under which a snapshot is stored, and fork-time compatibility is the
// caller's contract, checked with CompatibleConfig on the two configs it
// holds anyway.
type Snapshot struct {
	State network.CheckpointState
}

// Capture freezes a network's complete state. It fails when the network
// holds state a fork could not reproduce (see the package comment) or when
// any internal cross-check — down to the scheduler's pending-event queue
// matching the captured subsystems key for key — does not hold.
func Capture(n *network.Network) (*Snapshot, error) {
	st, err := n.CaptureCheckpoint()
	if err != nil {
		return nil, err
	}
	return &Snapshot{State: *st}, nil
}

// Fork builds a fresh network from cfg and restores the snapshot into it.
// cfg must be capture-compatible with the configuration the snapshot was
// captured under (CompatibleConfig); tr must be the same trace the capture
// ran with, re-derived by the caller, or nil when the capture had no
// traffic attached. The forked network continues exactly where the capture
// stopped: running both to the same horizon yields byte-identical results.
func Fork(s *Snapshot, cfg network.Config, tr *traffic.Trace) (*network.Network, error) {
	n, err := network.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := n.RestoreCheckpoint(&s.State, tr); err != nil {
		return nil, err
	}
	return n, nil
}

// Neutral returns c with every field a policy-frozen warm-up is provably
// independent of set to zero. This is the definition of policy
// independence, and the only one: CompatibleConfig compares two configs
// through it, and the experiment harness keys stored warm snapshots on a
// full serialization of it (exp.Warmed), so a field is shareable across
// forks exactly when it is zeroed here. What is zeroed: the DVS policy
// selection and its parameters (decision windows never close under hold);
// the link transition latencies (no transition ever starts under hold, so
// no captured timer depends on them); Audit.OnViolation (an observer, not
// state — func values cannot be compared, and restore separately requires
// checker presence to match); and Tiles (an execution strategy: snapshots
// are captured and restored untiled, and results are tile-independent).
func Neutral(c network.Config) network.Config {
	c.Policy = 0
	c.DVS = core.Params{}
	c.Link.VoltTransition, c.Link.FreqTransitionCycles = 0, 0
	c.Audit.OnViolation = nil
	c.Tiles = 0
	return c
}

// CompatibleConfig reports whether a snapshot captured under base may be
// forked into a network built from fork: everything that shapes captured
// state must be identical, i.e. the two must agree on all that Neutral
// keeps.
func CompatibleConfig(base, fork network.Config) error {
	if !reflect.DeepEqual(Neutral(base), Neutral(fork)) {
		return fmt.Errorf("checkpoint: fork config differs from capture config beyond policy, DVS parameters and link transition latencies")
	}
	return nil
}
