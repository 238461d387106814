package exp

import (
	"runtime"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/network"
	"repro/internal/runcache"
	"repro/internal/traffic"
)

// Session holds the run pipeline's state: the persistent store, the worker
// gate, the four singleflight memos and the warm-up meter. Nothing is
// shared between sessions, so two of them can regenerate one figure
// concurrently without seeing each other's work, and a caller that wants
// cold caches takes a fresh session instead of resetting the process.
type Session struct {
	store *runcache.Store // nil: results live in the memos only
	slots chan struct{}   // one token per executing simulation

	runCache     *sfCache[string, network.Results]      // simulation points
	measureCache *sfCache[Options, *measureSet]         // fig3-5's characterization set
	warmSnaps    *sfCache[string, *checkpoint.Snapshot] // warm snapshots, one per warm key
	traceMemo    *sfCache[traceKey, *traffic.Trace]     // captured traces, weighted by arrivals

	warmupCycles atomic.Int64   // warm-up cycles simulated, see heldWarmup
	walk         *prefetchState // set only on a prefetch walk's session

	// Test hooks, set before the session's first run. tinyBudget shrinks
	// cycle budgets far below -quick for harness tests that need many full
	// sweeps (the resolved budget is in every key, so tiny runs never
	// collide with real ones); noTraceMemo drives every workload live;
	// noCheckpoint runs every warm-up straight from cycle 0. Neither of
	// the last two changes a byte, which is what their tests pin.
	tinyBudget, noTraceMemo, noCheckpoint bool
}

// NewSession returns a session with empty memos over store (nil for none)
// that runs at most workers simulations at once; workers <= 0 means
// GOMAXPROCS.
func NewSession(store *runcache.Store, workers int) *Session {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ses := &Session{
		store:        store,
		slots:        make(chan struct{}, workers),
		runCache:     newSFCache[string, network.Results](runCacheCap),
		measureCache: newSFCache[Options, *measureSet](16),
		warmSnaps:    newSFCache[string, *checkpoint.Snapshot](64),
		traceMemo:    newSFCache[traceKey, *traffic.Trace](totalTraceArrivals),
	}
	ses.traceMemo.cost = traceArrivals
	return ses
}

// WarmupCyclesExecuted reports the warm-up cycles the session has
// simulated. Tests diff it around sweeps.
func (ses *Session) WarmupCyclesExecuted() int64 { return ses.warmupCycles.Load() }

// defaultSession backs the package-level entry points, which cmd/figures,
// cmd/netsim, the noc facade and the benchmark call. Its setters replace
// it whole; runs in flight finish on the session they started on.
var defaultSession atomic.Pointer[Session]

func init() { defaultSession.Store(NewSession(nil, 0)) }

// replaceDefault swaps in a fresh default session built from the current
// one's store and worker count.
func replaceDefault(next func(store *runcache.Store, workers int) *Session) {
	for {
		cur := defaultSession.Load()
		if defaultSession.CompareAndSwap(cur, next(cur.store, cap(cur.slots))) {
			return
		}
	}
}

// ResetCaches replaces the default session with a fresh one over the same
// store and worker count, dropping every memoized result, characterization
// set, warm snapshot and trace and restarting the warm-up meter.
// Benchmarks use it to measure real work per iteration.
func ResetCaches() { replaceDefault(NewSession) }

// SetDiskCache gives the default session the persistent store s (nil for
// none), with empty memos.
func SetDiskCache(s *runcache.Store) {
	replaceDefault(func(_ *runcache.Store, j int) *Session { return NewSession(s, j) })
}

// SetParallelism gives the default session a bound of j concurrently
// executing simulations (j <= 0: GOMAXPROCS), with empty memos.
func SetParallelism(j int) {
	replaceDefault(func(s *runcache.Store, _ int) *Session { return NewSession(s, j) })
}

// DiskCache reports the default session's persistent store, or nil.
func DiskCache() *runcache.Store { return defaultSession.Load().store }

// Run, RunAll, Prefetch, Warmed, Point, DiskCacheStats and
// WarmupCyclesExecuted act on the default session.

func Run(id string, o Options) ([]Table, error) { return defaultSession.Load().Run(id, o) }

func RunAll(ids []string, o Options) ([][]Table, error) { return defaultSession.Load().RunAll(ids, o) }

func Prefetch(ids []string, o Options) ([]PrefetchEntry, error) {
	return defaultSession.Load().Prefetch(ids, o)
}

func Warmed(cfg network.Config, w traffic.TwoLevelParams, warm, meas int64, reuse bool) (*network.Network, error) {
	return defaultSession.Load().Warmed(cfg, w, warm, meas, reuse)
}

func Point(rate float64, policy network.PolicyKind, o Options) network.Results {
	return defaultSession.Load().Point(rate, policy, o)
}

func DiskCacheStats() runcache.Stats { return defaultSession.Load().DiskCacheStats() }

func WarmupCyclesExecuted() int64 { return defaultSession.Load().WarmupCyclesExecuted() }
