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
// pair, netsim's Summary) is its raw little-endian record, anything else
// canonical JSON. Both round-trip every float64 bit for bit — the record
// by copying the bits, JSON by Go's shortest round-tripping decimal — so a
// decoded result renders byte-identically to the freshly simulated one
// (the golden tests pin this).
//
// Records have one codec for both directions, recordCodec over the field
// lists in recordFields: no reflection, the layout encoding/binary gives
// the same structs, and a hit is copied from the store's read buffer
// (runcache.Store.LoadInto) through a stack buffer into a value on the
// caller's stack, with no allocation.
package exp

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/network"
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
// it is exactly compute(). A record payload decodes into a value on the
// caller's stack; the other codecs decode through the heap.
func cached[T any](ses *Session, key string, compute func() T) T {
	var v T
	if ses.prefetchIntercept(key) {
		return v
	}
	if ses.store != nil {
		if size := recordSize(&v); size > 0 {
			if loadRecord(ses.store, key, &v, size) {
				return v
			}
		} else if p := new(T); lookupPayload(ses.store, key, p) {
			return *p
		}
	}
	v = compute()
	stored := v // a copy, so that only a miss moves one to the heap
	storePayload(ses.store, key, &stored)
	return v
}

// CacheLookup and CacheStore give downstream tooling (noc's run-summary
// cache, for cmd/netsim) the persistent layer's one payload path,
// lookupPayload and storePayload, over the default session's store;
// cached goes through the same two. A payload that fails to decode is
// quarantined and counted as a miss. Both are no-ops without a store.
func CacheLookup(key string, v any) bool { return lookupPayload(DiskCache(), key, v) }

func CacheStore(key string, v any) { storePayload(DiskCache(), key, v) }

// Summary is netsim's persistent form of one run: the results and the
// packets still in flight when the measurement ended, everything its
// summary block prints.
type Summary struct {
	Results  network.Results
	InFlight int64
}

// lookupPayload decodes the payload stored under key into v, a pointer,
// with the codec storePayload picks for v's type. A record must fill v
// exactly: a short payload or one with bytes left over fails decode, so
// the entry is quarantined and counted as a miss.
func lookupPayload(s *runcache.Store, key string, v any) bool {
	if s == nil {
		return false
	}
	if size := recordSize(v); size > 0 {
		return loadRecord(s, key, v, size)
	}
	return s.Load(key, func(b []byte) error { return json.Unmarshal(b, v) })
}

// loadRecord decodes the record stored under key into v, a pointer to a
// type recordFields lists, size bytes long. The payload goes from the
// store's read buffer through one on this stack into *v, with no
// allocation; a payload of another length is quarantined and counted as a
// miss.
func loadRecord(s *runcache.Store, key string, v any, size int) bool {
	var raw [128]byte
	b := raw[:]
	if size > len(b) {
		b = make([]byte, size)
	}
	if !s.LoadInto(key, b[:size]) {
		return false
	}
	recordFields(&recordCodec{buf: b[:size], decode: true}, v)
	return true
}

// storePayload stores v, a value or a pointer to one, under key. A record
// type's value is written as its raw little-endian record, which copies
// every bit (NaN and the infinities included) and decodes without
// parsing; anything else is JSON. The codec follows v's type alone, never
// its value, so lookup and store always agree. An encoding error stores
// nothing, so the value is recomputed next time.
func storePayload(s *runcache.Store, key string, v any) {
	if s == nil {
		return
	}
	v = recordPointer(v)
	var b []byte
	if size := recordSize(v); size > 0 {
		b = make([]byte, size)
		recordFields(&recordCodec{buf: b}, v)
	} else {
		var err error
		if b, err = json.Marshal(v); err != nil {
			return
		}
	}
	s.Put(key, b)
}

// recordCodec encodes or decodes one raw little-endian record in buf,
// field by field in declaration order: the layout encoding/binary gives
// the same struct, without reflection or an intermediate buffer.
// recordFields walks a payload's fields once for both directions, and a
// walk over no buffer measures the record.
type recordCodec struct {
	buf    []byte // the record, exactly its size
	decode bool
	off    int // bytes walked
}

func (c *recordCodec) u64(p *uint64) {
	if c.off+8 <= len(c.buf) {
		if c.decode {
			*p = binary.LittleEndian.Uint64(c.buf[c.off:])
		} else {
			binary.LittleEndian.PutUint64(c.buf[c.off:], *p)
		}
	}
	c.off += 8
}

func (c *recordCodec) i64(p *int64) {
	u := uint64(*p)
	c.u64(&u)
	*p = int64(u)
}

func (c *recordCodec) f64(p *float64) {
	u := math.Float64bits(*p)
	c.u64(&u)
	*p = math.Float64frombits(u)
}

// recordFields runs c over the fields of *v, a fixed-size payload this
// package stores, and reports whether v points to one.
// TestRecordCodecMatchesBinary holds each field list to encoding/binary's
// layout of the type.
func recordFields(c *recordCodec, v any) bool {
	switch v := v.(type) {
	case *network.Results:
		resultsFields(c, v)
	case *routerPowerPayload:
		routerPowerFields(c, v)
	case *Summary:
		resultsFields(c, &v.Results)
		c.i64(&v.InFlight)
	default:
		return false
	}
	return true
}

// recordPointer returns a pointer to a copy of v when v is a value of a
// type recordFields lists, and v itself otherwise, so that a record passed
// by value is stored as one.
func recordPointer(v any) any {
	switch v := v.(type) {
	case network.Results:
		return &v
	case routerPowerPayload:
		return &v
	case Summary:
		return &v
	}
	return v
}

// recordSize reports the record length of *v, or 0 if v does not point
// to a type recordFields lists.
func recordSize(v any) int {
	var c recordCodec
	recordFields(&c, v)
	return c.off
}

func resultsFields(c *recordCodec, r *network.Results) {
	c.i64(&r.Cycles)
	c.i64(&r.InjectedPkts)
	c.i64(&r.DeliveredPkts)
	c.f64(&r.MeanLatency)
	c.f64(&r.P50Latency)
	c.f64(&r.P99Latency)
	c.f64(&r.ThroughputPkts)
	c.f64(&r.AvgPowerW)
	c.f64(&r.NormalizedPwr)
	c.f64(&r.SavingsX)
}

func routerPowerFields(c *recordCodec, p *routerPowerPayload) {
	c.f64(&p.CoreW)
	c.f64(&p.LinkW)
}
