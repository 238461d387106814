// The warm-up stage every client runs: figures' sweeps ablate the DVS
// policy across many variants at one operating point, netsim and the
// benchmark driver run one variant at a time, and all of them want the
// same thing — a network at the end of its warm-up, paid for as few times
// as possible. Warm-ups run policy-frozen (network.SetDVSHold): the policy
// is a measurement-time concern, and freezing it makes the warmed-up state
// independent of exactly the fields checkpoint.Neutral zeroes. So the
// stage is trace -> warm snapshot -> fork: the workload's shared trace,
// one snapshot of the held warm-up per warm key (internal/checkpoint),
// restored into each variant's own network. A fork is byte-identical to
// an uninterrupted run (the conformance suite pins this), so the stage
// changes how much warm-up work is done, never a result.
package exp

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// warmKey identifies everything a held warm-up depends on, by construction
// rather than by list: it prints every field of the policy-neutral config
// (checkpoint.Neutral is the one place that says what a held warm-up does
// not depend on), every workload parameter, and both budgets (the trace
// horizon spans warm-up and measurement, so both shape the replay state).
// Equal keys therefore imply checkpoint.CompatibleConfig, and a field
// added to either struct is keyed without anyone remembering to. It is
// computed only inside a result miss, so its cost never reaches a warm
// regeneration.
func warmKey(cfg network.Config, w traffic.TwoLevelParams, warm, meas int64) string {
	return fmt.Sprintf("warm|v%d|%#v|%#v|warm=%d|meas=%d", SchemaVersion, checkpoint.Neutral(cfg), w, warm, meas)
}

// Warmed builds cfg's network under the two-level workload w and brings it
// to the end of a policy-frozen warm-up of warm cycles, the hold released,
// ready for BeginMeasurement and Run(meas). With reuse, the warmed-up
// state forks from the snapshot stored under the warm key when any earlier
// run — of this client or another, under any policy — already paid for the
// warm-up, and is simulated, captured and stored otherwise. Without reuse,
// for a workload that must run live (see workload), after a capture
// refusal or a failed restore, the warm-up simulates straight; nothing is
// captured or encoded on that path. Both paths release the hold at the same
// instant, so what is measured afterwards is identical either way.
func (ses *Session) Warmed(cfg network.Config, w traffic.TwoLevelParams, warm, meas int64, reuse bool) (*network.Network, error) {
	return ses.warmed(cfg, w, warm, meas, reuse, false)
}

// warmed is Warmed with the sweep's in-process layer selectable: memo puts
// the session's warmSnaps above the store, one slot per warm key, so the
// variants of one sweep share a decoded snapshot (and a sweep shares
// warm-ups with no store at all); a nil slot means the warm-up
// could not be captured, and every variant then runs straight.
// One-shot callers go without: each of their calls stands for a process
// of its own, and a snapshot nobody will fork again is not worth holding.
func (ses *Session) warmed(cfg network.Config, w traffic.TwoLevelParams, warm, meas int64, reuse, memo bool) (*network.Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	horizon := sim.Time(warm+meas+1) * cfg.RouterPeriod
	m, tr, err := ses.workload(cfg, w, horizon)
	if err != nil {
		return nil, err
	}
	if reuse && tr != nil {
		key := warmKey(cfg, w, warm, meas)
		load := func() *checkpoint.Snapshot { return ses.warmSnapshot(key, cfg, tr, horizon, warm) }
		var snap *checkpoint.Snapshot
		if memo {
			snap = ses.warmSnaps.do(key, load)
		} else {
			snap = load()
		}
		if snap != nil {
			n, err := checkpoint.Fork(snap, cfg, tr)
			if err == nil {
				n.SetDVSHold(false)
				return n, nil
			}
			// Decodes but does not restore — a stale or foreign payload
			// whose shape does not fit this platform: quarantine it so the
			// next process re-captures, and run straight.
			if ses.store != nil {
				ses.store.Drop(key)
			}
		}
	}
	n, err := ses.heldWarmup(cfg, m, horizon, warm)
	if err != nil {
		return nil, err
	}
	n.SetDVSHold(false)
	return n, nil
}

// heldWarmup builds cfg's network, launches the workload and runs the
// policy-frozen warm-up, counting its cycles in the session's warm-up
// meter: re-executed warm-ups (capture refusals, straight fallbacks) count
// every time, so it meters work actually done, not work intended. The
// hold is still on when it returns.
func (ses *Session) heldWarmup(cfg network.Config, m traffic.Model, horizon sim.Time, warm int64) (*network.Network, error) {
	n, err := network.New(cfg)
	if err != nil {
		return nil, err
	}
	n.Launch(m, horizon)
	n.SetDVSHold(true)
	n.Run(warm)
	ses.warmupCycles.Add(warm)
	return n, nil
}

// warmSnapshot returns the snapshot for a warm key: the store's when it
// holds one that decodes (one that does not is dropped), else a held
// warm-up simulated here, captured and stored. nil means the warm-up
// cannot be captured — a refusal is a correctness escape hatch, not an
// error — and the caller runs straight.
func (ses *Session) warmSnapshot(key string, cfg network.Config, tr *traffic.Trace, horizon sim.Time, warm int64) *checkpoint.Snapshot {
	ds := ses.store
	if ds != nil {
		var snap *checkpoint.Snapshot
		if ds.Load(key, func(b []byte) (err error) { snap, err = checkpoint.Decode(b); return err }) {
			return snap
		}
	}
	n, err := ses.heldWarmup(cfg, tr, horizon, warm)
	if err != nil {
		return nil
	}
	snap, err := checkpoint.Capture(n)
	if err != nil {
		return nil
	}
	if ds != nil {
		if b, err := checkpoint.Encode(snap); err == nil {
			ds.Put(key, b) // a failed put is counted and reported by the store
		}
	}
	return snap
}

// simulate executes warm-up + measurement for one point of a sweep.
func (ses *Session) simulate(s spec, o Options) network.Results {
	warm, meas := ses.budget(o)
	n, err := ses.warmed(s.config(o), s.twoLevelParams(o), warm, meas, !ses.noCheckpoint, true)
	if err != nil {
		panic(err)
	}
	n.BeginMeasurement()
	n.Run(meas)
	return n.Snapshot()
}
