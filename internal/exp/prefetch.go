// Cache prefetch walk: a dry-run mode that visits every persistent-cache
// key the selected experiments would consult and reports which are present
// on disk — without running a single simulation. CI uses it as a cheap
// cache-health check (is the shared cache still warm for HEAD?), and it
// answers "what would -exp all recompute?" before committing to the hours.
//
// Mechanism: every simulation result in this package funnels through
// cached() (diskcache.go) on its way to being computed — point results,
// figure payloads and the Section 3.1 characterization set alike. A walk
// runs the registered runners on a throwaway session of its own, on which
// cached() records each key, probes the store for presence, and returns
// the zero value instead of computing, so the runners drive the exact key
// set of a real run at rendering cost only.
// The "warm|" snapshot keys are deliberately out of scope: they are
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

func (ps *prefetchState) record(key string, hit bool) {
	ps.mu.Lock()
	if !ps.seen[key] {
		ps.seen[key] = true
		ps.entries = append(ps.entries, PrefetchEntry{Key: key, Hit: hit})
	}
	ps.mu.Unlock()
}

// prefetchIntercept is cached()'s hook: on a walk's session it records the
// key (with a disk-presence probe) and reports that the caller must return
// the zero value instead of computing.
func (ses *Session) prefetchIntercept(key string) bool {
	if ses.walk == nil {
		return false
	}
	hit := false
	if ses.store != nil {
		_, hit = ses.store.Get(key)
	}
	ses.walk.record(key, hit)
	return true
}

// Prefetch dry-runs the given experiments and reports, in sorted key
// order, every persistent-cache key they would consult and whether it is
// present in the session's store (all misses when it has none). No
// simulation runs. The walk runs on a throwaway session over the same
// store: its memos start empty, as a fresh process's do, so every lookup
// reaches the persistent layer, and the zero-valued placeholders it
// memoizes go with it. The session Prefetch is called on is untouched.
func (ses *Session) Prefetch(ids []string, o Options) ([]PrefetchEntry, error) {
	if err := checkRun(ids, o); err != nil {
		return nil, err
	}
	walk := NewSession(ses.store, cap(ses.slots))
	walk.tinyBudget = ses.tinyBudget
	walk.walk = &prefetchState{seen: make(map[string]bool)}
	for _, id := range ids {
		func() {
			// Runners render from the payloads cached() hands back; zero
			// payloads can break rendering (nil histograms, empty grids).
			// Every key is recorded before its payload is used, so a
			// rendering panic costs nothing.
			defer func() { _ = recover() }()
			registry[id](walk, o)
		}()
	}
	ps := walk.walk
	if n := ps.sims.Load(); n != 0 {
		return nil, fmt.Errorf("exp: prefetch walk executed %d simulations; the dry-run interception has a gap", n)
	}
	sort.Slice(ps.entries, func(i, j int) bool { return ps.entries[i].Key < ps.entries[j].Key })
	return ps.entries, nil
}
