// Persistent result cache: a content-addressed disk store layered under
// the in-memory singleflight caches. Lookups go memory -> disk -> compute:
// the singleflight memo still deduplicates concurrent callers inside one
// process, and its compute function consults the disk store before paying
// for a simulation, so a warm directory turns a full figure regeneration
// into a handful of file reads.
//
// Keys are canonical, versioned serializations of the full run spec (see
// spec.cacheKey); the store mixes in a code fingerprint — SchemaVersion
// plus the binary's VCS revision — so entries invalidate automatically on
// commit or schema bump. Payloads are canonical JSON: Go encodes float64
// with the shortest round-tripping decimal, so a decoded result renders
// byte-identically to the freshly simulated one (the golden tests pin
// this).
package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"

	"repro/internal/runcache"
)

// SchemaVersion versions the cache-key canonicalization and payload
// encodings of this package. Bump it whenever a spec field, an Options
// field, a cached payload shape, or the meaning of any serialized value
// changes — stale entries from older schemas then become unreachable.
//
// v2: warmups run policy-frozen (network.SetDVSHold) and warmed-up
// snapshots are persisted beside results; both change what every cached
// result means, so v1 entries are unreachable. A change to the warm key
// alone ("warm|", see warmKey) needs no bump: results stay valid, and
// snapshots under an old key are unreachable and age out.
const SchemaVersion = 2

// diskStore is the process-wide persistent cache; nil (the default) means
// results live only in the in-memory caches, exactly the pre-cache
// behavior.
var diskStore atomic.Pointer[runcache.Store]

// SetDiskCache installs (or, with nil, removes) the persistent result
// store under the in-memory caches. Safe to call concurrently with runs;
// in-flight computations finish against the store they started with.
func SetDiskCache(s *runcache.Store) { diskStore.Store(s) }

// DiskCache reports the installed persistent store, or nil.
func DiskCache() *runcache.Store { return diskStore.Load() }

// OpenDiskCache opens (creating if necessary) a persistent result cache at
// dir with the canonical code fingerprint and installs it. maxBytes <= 0
// selects the store's default size cap.
//
// It refuses — returning an error and installing nothing — when the
// running binary carries no VCS revision: `go run` and `go test` binaries
// are not stamped, so their fingerprint would be stable across commits and
// code edits and stale results would replay silently. Use a built binary
// (`go build ./cmd/figures`) to cache persistently. A stamped-but-dirty
// tree is cached under a single "+dirty" fingerprint, which cannot
// distinguish successive uncommitted edits; that case gets a one-line
// stderr notice instead of a refusal.
func OpenDiskCache(dir string, maxBytes int64) error {
	rev, dirty, stamped := runcache.VCSInfo()
	if !stamped {
		return fmt.Errorf("binary carries no VCS revision (go run and go test binaries are not stamped), so cached results would not invalidate on code changes; build the binary (go build ./cmd/...) to enable persistent caching")
	}
	if dirty {
		fmt.Fprintf(os.Stderr, "exp: run cache: working tree was dirty at build (%.12s+dirty); successive uncommitted edits share one cache fingerprint — pass -no-cache while iterating on simulation code\n", rev)
	}
	s, err := runcache.Open(dir, runcache.Options{
		MaxBytes:    maxBytes,
		Fingerprint: runcache.Fingerprint(fmt.Sprintf("repro-exp/v%d", SchemaVersion)),
	})
	if err != nil {
		return err
	}
	SetDiskCache(s)
	return nil
}

// DiskCacheStats snapshots the persistent store's counters (zero when no
// store is installed).
func DiskCacheStats() runcache.Stats {
	if s := diskStore.Load(); s != nil {
		return s.Stats()
	}
	return runcache.Stats{}
}

// cached wraps a computation with the persistent layer: disk hit if the
// payload verifies and decodes, else compute and store. A checksum-valid
// entry that fails to decode (schema drift within one fingerprint) is
// quarantined and recomputed, never trusted. With no store installed it is
// exactly compute().
func cached[T any](key string, compute func() T) T {
	if prefetchIntercept(key) {
		var zero T
		return zero
	}
	s := diskStore.Load()
	if s == nil {
		return compute()
	}
	if b, ok := s.Get(key); ok {
		var v T
		if err := json.Unmarshal(b, &v); err == nil {
			return v
		}
		s.Drop(key)
	}
	v := compute()
	if b, err := json.Marshal(v); err == nil {
		s.Put(key, b) // a failed put costs a recompute; the store counts and reports it
	}
	return v
}

// CacheLookupJSON and CacheStoreJSON expose the persistent layer to
// downstream tooling (cmd/netsim caches its one-shot summaries through
// them) with the same decode-failure quarantine as the harness's own
// lookups. Both are no-ops without an installed store.
func CacheLookupJSON(key string, v any) bool {
	s := diskStore.Load()
	if s == nil {
		return false
	}
	b, ok := s.Get(key)
	if !ok {
		return false
	}
	if err := json.Unmarshal(b, v); err != nil {
		s.Drop(key)
		return false
	}
	return true
}

func CacheStoreJSON(key string, v any) {
	s := diskStore.Load()
	if s == nil {
		return
	}
	if b, err := json.Marshal(v); err == nil {
		s.Put(key, b)
	}
}
