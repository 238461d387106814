// Persistent result cache: a content-addressed disk store layered under
// the in-memory singleflight caches. Lookups go memory -> disk -> compute:
// the singleflight memo still deduplicates concurrent callers inside one
// process, and its compute function consults the disk store before paying
// for a simulation, so a warm directory turns a full figure regeneration
// into a handful of file reads.
//
// Keys are canonical, versioned serializations of the full run spec (see
// Session.cacheKey); the store mixes in a code fingerprint — SchemaVersion
// plus the binary's VCS revision — so entries invalidate automatically on
// commit or schema bump. The payload codec follows the value's type (see
// storePayload): a fixed-size value (network.Results, the router-power
// pair) is its raw little-endian record, anything else canonical JSON.
// Both round-trip every float64 bit for bit — the record by copying the
// bits, JSON by Go's shortest round-tripping decimal — so a decoded result
// renders byte-identically to the freshly simulated one (the golden tests
// pin this).
package exp

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"reflect"

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
//
// v3: result keys print the spec by construction (spec.cacheKey) instead
// of a hand-kept field list.
//
// v4: result keys append each field by name (Session.cacheKey) instead of
// printing the spec with %#v, and fixed-size payloads are raw
// little-endian records instead of JSON.
const SchemaVersion = 4

// OpenDiskCache opens (creating if necessary) a persistent result cache at
// dir with the canonical code fingerprint and gives it to the default
// session (SetDiskCache). maxBytes <= 0 selects the store's default size
// cap.
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

// DiskCacheStats snapshots the session's persistent store's counters (zero
// when it has none).
func (ses *Session) DiskCacheStats() runcache.Stats {
	if ses.store == nil {
		return runcache.Stats{}
	}
	return ses.store.Stats()
}

// cached wraps a computation with the persistent layer: disk hit if the
// payload verifies and decodes, else compute and store. A checksum-valid
// entry that fails to decode (schema drift within one fingerprint) is
// quarantined and recomputed, never trusted. With no store in the session
// it is exactly compute().
func cached[T any](ses *Session, key string, compute func() T) T {
	var v T
	if ses.prefetchIntercept(key) || lookupPayload(ses.store, key, &v) {
		return v
	}
	v = compute()
	storePayload(ses.store, key, &v)
	return v
}

// CacheLookup and CacheStore give downstream tooling (cmd/netsim caches
// its one-shot summaries here) the persistent layer's one payload path,
// lookupPayload and storePayload, over the default session's store;
// cached goes through the same two. A payload that fails to decode is
// quarantined and counted as a miss. Both are no-ops without a store.
func CacheLookup(key string, v any) bool { return lookupPayload(DiskCache(), key, v) }

func CacheStore(key string, v any) { storePayload(DiskCache(), key, v) }

// lookupPayload decodes the payload stored under key into v, a pointer,
// with the codec storePayload picks for v's type. A fixed-size record
// must fill v exactly: a short payload or one with bytes left over fails
// decode, so the entry is quarantined and counted as a miss.
func lookupPayload(s *runcache.Store, key string, v any) bool {
	if s == nil {
		return false
	}
	if !fixedSize(v) {
		return s.Load(key, func(b []byte) error { return json.Unmarshal(b, v) })
	}
	return s.Load(key, func(b []byte) error {
		r := bytes.NewReader(b)
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return err
		}
		if r.Len() != 0 {
			return fmt.Errorf("exp: %d bytes past a fixed-size payload", r.Len())
		}
		return nil
	})
}

// storePayload stores v, a value or a pointer to one, under key. A
// fixed-size value — fixed-width numbers, bools, and arrays and structs of
// them — is written as its raw little-endian record, which copies every
// bit (NaN and the infinities included) and decodes without parsing;
// anything else is JSON. An encoding error stores nothing, so the value is
// recomputed next time.
func storePayload(s *runcache.Store, key string, v any) {
	if s == nil {
		return
	}
	var b []byte
	if fixedSize(v) {
		var buf bytes.Buffer
		if binary.Write(&buf, binary.LittleEndian, v) != nil {
			return
		}
		b = buf.Bytes()
	} else {
		var err error
		if b, err = json.Marshal(v); err != nil {
			return
		}
	}
	s.Put(key, b)
}

// fixedSize reports whether v's payloads are raw records. The choice
// follows v's type alone, never its value, so lookup and store always
// agree: a slice has a binary.Size too, but one that depends on its
// length, so slices stay JSON.
func fixedSize(v any) bool {
	return binary.Size(v) > 0 && reflect.Indirect(reflect.ValueOf(v)).Kind() != reflect.Slice
}
