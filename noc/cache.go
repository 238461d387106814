package noc

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/exp"
)

// The persistent run cache stores finished simulation results on disk,
// content-addressed by the full run specification and the binary's code
// revision. With a cache enabled, rerunning an experiment with unchanged
// parameters replays stored results byte-identically instead of
// re-simulating; editing one experiment's parameters re-simulates exactly
// the points that changed.

// DefaultRunCacheDir reports the conventional cache location: the user
// cache directory (e.g. ~/.cache/linkdvs/runcache), falling back to the
// system temporary directory when no user cache dir is defined.
func DefaultRunCacheDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		base = os.TempDir()
	}
	return filepath.Join(base, "linkdvs", "runcache")
}

// EnableRunCache opens (creating if necessary) the persistent result cache
// at dir and installs it under the experiment harness. An empty dir selects
// DefaultRunCacheDir; maxBytes <= 0 selects the default size cap (256 MiB).
// Entries invalidate automatically when the binary's VCS revision or the
// harness schema changes. That invalidation lever requires a VCS-stamped
// binary: under `go run`, `go test`, or an out-of-repo build no revision
// is embedded, and EnableRunCache returns an error (installing nothing)
// rather than replay results that would survive code changes.
func EnableRunCache(dir string, maxBytes int64) error {
	if dir == "" {
		dir = DefaultRunCacheDir()
	}
	return exp.OpenDiskCache(dir, maxBytes)
}

// DisableRunCache removes the persistent cache; results then live only in
// the in-process memo, exactly the pre-cache behavior.
func DisableRunCache() { exp.SetDiskCache(nil) }

// CacheStats snapshots the run cache's counters (field for field
// runcache.Stats).
type CacheStats struct {
	Hits, Misses   int64 // lookups served from disk vs not found
	Puts           int64 // entries written
	CorruptDropped int64 // entries quarantined (checksum or decode failure)
	Evictions      int64 // entries removed by the size cap
	BytesRead      int64 // payload bytes served from disk
	BytesWritten   int64 // payload bytes written to disk
	PutFailures    int64 // writes that failed: those results were not persisted
}

// HitRate reports hits / (hits + misses), or 0 with no lookups.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// RunCacheStats reports the persistent cache's counters since
// EnableRunCache (all zero when no cache is enabled).
func RunCacheStats() CacheStats { return CacheStats(exp.DiskCacheStats()) }

// FprintCacheStats writes the run cache's counters to w as one stable,
// greppable line (CI asserts on hits and misses after a warm rerun).
func FprintCacheStats(w io.Writer) {
	s := RunCacheStats()
	fmt.Fprintf(w, "runcache: hits=%d misses=%d puts=%d corrupt=%d evictions=%d read=%dB written=%dB hit-rate=%.2f put-failures=%d\n",
		s.Hits, s.Misses, s.Puts, s.CorruptDropped, s.Evictions,
		s.BytesRead, s.BytesWritten, s.HitRate(), s.PutFailures)
}

// RunCacheLookupSummary and RunCacheStoreSummary expose the persistent
// layer to downstream tooling that caches one run's summary under a key
// of its own (cmd/netsim prints a hit without simulating): the results
// and the packets still in flight when the measurement ended. Lookup
// always misses, and store does nothing, without an enabled cache.
func RunCacheLookupSummary(key string) (r Results, inFlight int64, ok bool) {
	var s exp.Summary
	if !exp.CacheLookup(key, &s) {
		return Results{}, 0, false
	}
	return fromInner(s.Results), s.InFlight, true
}

// RunCacheStoreSummary stores one run's summary under key (see
// RunCacheLookupSummary) as a raw little-endian record, every bit of
// every float kept.
func RunCacheStoreSummary(key string, r Results, inFlight int64) {
	exp.CacheStore(key, &exp.Summary{Results: r.inner(), InFlight: inFlight})
}
