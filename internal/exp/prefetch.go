// Cache prefetch walk: a dry-run mode that visits every persistent-cache
// key the selected experiments would consult and reports which are present
// on disk — without running a single simulation. CI uses it as a cheap
// cache-health check (is the shared cache still warm for HEAD?), and it
// answers "what would -exp all recompute?" before committing to the hours.
//
// Mechanism: every simulation result in this package funnels through
// cached() (diskcache.go) on its way to being computed — point results,
// figure payloads and the Section 3.1 characterization set alike. While a
// walk is active, cached() records its key, probes the store for presence,
// and returns the zero value instead of computing, so the registered
// runners drive the exact key set of a real run at rendering cost only.
// The "ckpt|" warm-snapshot keys are deliberately out of scope: they are
// consulted only inside a point's compute function, which a hit never
// reaches, so their presence does not affect what a warm rerun recomputes.
package exp

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// PrefetchEntry reports one persistent-cache key a dry run consulted. Hit
// is false when no store is installed.
type PrefetchEntry struct {
	Key string
	Hit bool
}

// prefetchState collects the keys one walk touches. sims counts
// simulations that slipped past the interception — always zero; the
// counter exists so a future gap fails loudly instead of silently running
// hours of work.
type prefetchState struct {
	mu      sync.Mutex
	seen    map[string]bool
	entries []PrefetchEntry
	sims    atomic.Int64
}

// prefetchRec is the active walk, nil outside Prefetch.
var prefetchRec atomic.Pointer[prefetchState]

func (ps *prefetchState) record(key string, hit bool) {
	ps.mu.Lock()
	if !ps.seen[key] {
		ps.seen[key] = true
		ps.entries = append(ps.entries, PrefetchEntry{Key: key, Hit: hit})
	}
	ps.mu.Unlock()
}

// prefetchIntercept is cached()'s hook: when a walk is active it records
// the key (with a disk-presence probe) and reports that the caller must
// return the zero value instead of computing.
func prefetchIntercept(key string) bool {
	ps := prefetchRec.Load()
	if ps == nil {
		return false
	}
	hit := false
	if s := diskStore.Load(); s != nil {
		_, hit = s.Get(key)
	}
	ps.record(key, hit)
	return true
}

// Prefetch dry-runs the given experiments and reports, in sorted key
// order, every persistent-cache key they would consult and whether it is
// present in the installed store (all misses when none is installed). No
// simulation runs; the in-memory memo caches are reset afterwards, since
// the walk populates them with zero-valued placeholders.
//
// Walks are process-exclusive (the interception is a package-wide mode);
// concurrent real runs would be starved of results, so don't.
func Prefetch(ids []string, o Options) ([]PrefetchEntry, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	runners := make([]Runner, len(ids))
	for i, id := range ids {
		r, ok := registry[id]
		if !ok {
			return nil, unknownExperiment(id)
		}
		runners[i] = r
	}
	ps := &prefetchState{seen: make(map[string]bool)}
	if !prefetchRec.CompareAndSwap(nil, ps) {
		return nil, fmt.Errorf("exp: a prefetch walk is already running")
	}
	defer func() {
		prefetchRec.Store(nil)
		ResetCaches() // drop the zero-valued placeholders the walk memoized
	}()
	// A warm memory layer would satisfy lookups before they reach the
	// persistent layer and silently shrink the reported key set; the walk
	// must start cold to enumerate what a fresh process would consult.
	ResetCaches()
	for _, r := range runners {
		func() {
			// Runners render from the payloads cached() hands back; zero
			// payloads can break rendering (nil histograms, empty grids).
			// Every key is recorded before its payload is used, so a
			// rendering panic costs nothing.
			defer func() { _ = recover() }()
			r(o)
		}()
	}
	if n := ps.sims.Load(); n != 0 {
		return nil, fmt.Errorf("exp: prefetch walk executed %d simulations; the dry-run interception has a gap", n)
	}
	sort.Slice(ps.entries, func(i, j int) bool { return ps.entries[i].Key < ps.entries[j].Key })
	return ps.entries, nil
}
