// Package runcache is a persistent, content-addressed result cache: a
// directory of checksummed entries keyed by SHA-256 over (fingerprint,
// key), written atomically (tmp + rename) so concurrent processes sharing
// one directory never observe partial entries.
//
// The store is deliberately dumb about payloads — callers serialize their
// own values (the experiment harness stores fixed-size results as raw
// little-endian records and everything else as canonical JSON) — and strict
// about integrity: every entry carries a SHA-256 of its payload, and a
// truncated, bit-flipped or otherwise unverifiable entry is quarantined
// (deleted) and reported as a miss, never trusted. Eviction is size-capped
// LRU on file modification time: hits re-touch entries, and writes beyond
// the cap delete the stalest entries first.
//
// Reading is cheap: Open does no I/O beyond creating the directory, a hit
// builds its entry path on the stack and makes four system calls — open,
// read, LRU touch, close (see readEntry); only an entry too big for the
// first read's 512-byte buffer adds a stat — and the resident size the cap
// needs is worked out at the first write (see sized), so a process that
// only reads never opens the index sidecar. A small entry stays in that
// buffer on the stack: LoadInto copies its payload straight into the
// caller's record, with no allocation, while Get and Load hand out a heap
// copy. An entry larger than the cap is quarantined unread.
//
// The fingerprint mixed into every key is the cross-process invalidation
// lever: callers derive it from a schema version plus the binary's VCS
// revision (see Fingerprint), so results invalidate automatically on
// commit or schema bump without any explicit flush.
package runcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// entry layout: magic, SHA-256 of the payload, payload.
var magic = []byte("RUNCACH1")

const (
	entrySuffix    = ".rc"
	entryNameLen   = 2*sha256.Size + len(entrySuffix)
	tmpPattern     = "put-*.tmp"
	headerLen      = 8 + sha256.Size
	defaultMaxSize = 256 << 20 // 256 MiB
	smallEntry     = 512       // readEntry's first read: an entry that fits needs no stat
)

// Options configure a Store.
type Options struct {
	// MaxBytes caps the total size of resident entries; 0 means 256 MiB.
	// Exceeding the cap evicts least-recently-used entries after the write.
	MaxBytes int64
	// Fingerprint is mixed into every key hash. Two stores on one directory
	// with different fingerprints never see each other's entries; deriving
	// it from code identity (see Fingerprint) makes staleness impossible
	// across commits and schema versions.
	Fingerprint string
}

// Stats are cumulative operation counters for one Store instance.
type Stats struct {
	Hits, Misses   int64
	Puts           int64
	CorruptDropped int64 // entries quarantined: bad magic, bad checksum, above the cap, or caller-reported decode failure
	Evictions      int64
	BytesRead      int64 // payload bytes returned by hits
	BytesWritten   int64 // entry bytes written by puts
	PutFailures    int64 // puts that returned an error: nothing was persisted
}

// HitRate reports hits / (hits + misses), or 0 with no lookups.
func (s Stats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// Store is one handle on a cache directory. Handles are safe for
// concurrent use by multiple goroutines, and multiple handles (including
// handles in different processes) may share one directory: writes are
// atomic renames, reads tolerate entries vanishing underneath them, and
// identical keys hold identical payloads by construction (deterministic
// computations), so last-write-wins races are byte-level no-ops.
type Store struct {
	dir      string
	base     string // what filepath.Join puts before an entry name: the cleaned dir and a separator ("" for ".")
	maxBytes int64
	prefix   []byte   // length-prefixed fingerprint, prepended to every key preimage
	prefixIn [64]byte // holds prefix when it fits, so Open allocates one Store

	// atimeRefused: an open with O_NOATIME failed with EPERM (an entry
	// owned by another user), so later opens go without it (Linux only,
	// see readEntry).
	atimeRefused atomic.Bool

	sizeOnce sync.Once    // sized: the first write path loads the sidecar or rescans
	size     atomic.Int64 // approximate resident bytes once sized; eviction recomputes exactly
	evictMu  sync.Mutex

	idxMu     sync.Mutex
	idx       map[string]indexEntry // entry basename -> recorded size/mtime (see index.go)
	idxLoaded bool                  // sizing trusted a valid sidecar (no directory scan)

	hits, misses, puts      atomic.Int64
	corrupt, evictions      atomic.Int64
	putFails                atomic.Int64
	bytesRead, bytesWritten atomic.Int64
}

// Open creates (if needed) and opens a cache directory. It reads nothing:
// the resident size is worked out by the first write (see sized).
func Open(dir string, o Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("runcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runcache: %w", err)
	}
	return newStore(dir, o), nil
}

// newStore is Open without the directory.
func newStore(dir string, o Options) *Store {
	max := o.MaxBytes
	if max <= 0 {
		max = defaultMaxSize
	}
	// Join cleans its result; an entry name is one plain element, so the
	// part of a join before it is the same for every name.
	j := filepath.Join(dir, "x")
	s := &Store{dir: dir, base: j[:len(j)-1], maxBytes: max}
	s.prefix = binary.AppendUvarint(s.prefixIn[:0], uint64(len(o.Fingerprint)))
	s.prefix = append(s.prefix, o.Fingerprint...)
	return s
}

// sized works out the resident size once, the first time a write path
// (put, quarantine) or IndexLoaded needs it: from a valid sidecar, with no
// directory walk (see index.go), or else from the rescan, which also sweeps
// abandoned temp files and rewrites the sidecar. Every path that changes
// the size or the in-memory index calls it first, so a sidecar is never
// rewritten from an index that was not loaded.
func (s *Store) sized() {
	s.sizeOnce.Do(func() {
		if total, ok := s.loadIndex(); ok {
			s.idxLoaded = true
			s.size.Store(total)
		} else {
			s.size.Store(s.scanSize())
		}
	})
}

// Dir reports the store's directory.
func (s *Store) Dir() string { return s.dir }

// pathBuf holds an entry path, and the NUL that readEntry adds on Linux,
// when the directory and its separator take at most 188 bytes.
type pathBuf [256]byte

// appendPath appends key's entry path to dst: content addressing over the
// fingerprint-prefixed key. Hit and miss paths pass a pathBuf on their
// stack; a key or directory too long for the fixed buffers moves to the
// heap.
func (s *Store) appendPath(dst []byte, key string) []byte {
	var pre [512]byte
	sum := sha256.Sum256(append(append(pre[:0], s.prefix...), key...))
	return append(hex.AppendEncode(append(dst, s.base...), sum[:]), entrySuffix...)
}

// path is appendPath as a string, for the write and quarantine paths.
func (s *Store) path(key string) string {
	var buf pathBuf
	return string(s.appendPath(buf[:0], key))
}

// Get returns the cached payload for key. A missing entry is a miss; an
// entry that fails verification (wrong magic, wrong length, checksum
// mismatch, or a size above the store's cap) is quarantined — deleted and
// counted — and reported as a miss. Reading an entry re-touches its
// mtime, maintaining LRU order for eviction; one that then fails
// verification is deleted, so only hits keep the touch.
func (s *Store) Get(key string) ([]byte, bool) {
	var payload []byte
	ok := s.Load(key, func(p []byte) error { payload = p; return nil })
	return payload, ok
}

// Load is Get for a caller that decodes the payload: decode runs on it,
// and a payload that passes the checksum but fails decode (schema drift
// within one fingerprint) is quarantined and counted as a miss, like any
// other entry that fails verification. Load reports whether decode ran
// and succeeded.
func (s *Store) Load(key string, decode func(payload []byte) error) bool {
	var small [smallEntry]byte
	payload, end, ok := s.read(key, &small)
	if !ok {
		return false
	}
	if payload == nil {
		// decode is a function value, so the compiler moves whatever is
		// passed to it to the heap: decode gets a copy it may keep, not
		// the read buffer.
		payload = append([]byte(nil), small[headerLen:end]...)
	}
	if decode(payload) != nil {
		s.reject(key, len(payload))
		return false
	}
	s.hit(len(payload))
	return true
}

// LoadInto copies the payload stored under key into dst, which it must
// fill exactly: a payload of any other length is quarantined and counted
// as a miss, as a payload that fails Load's decode is. A small entry goes
// from the read buffer on the stack into dst, so a fixed-size record is
// read with no allocation.
func (s *Store) LoadInto(key string, dst []byte) bool {
	var small [smallEntry]byte
	payload, end, ok := s.read(key, &small)
	if !ok {
		return false
	}
	if payload == nil {
		payload = small[headerLen:end]
	}
	if len(payload) != len(dst) {
		s.reject(key, len(payload))
		return false
	}
	copy(dst, payload)
	s.hit(len(payload))
	return true
}

// errTooLarge reports an entry above the store's cap. None can be
// resident — put evicts down to the cap, the newest entry last — so it
// was grown or written by something else, and reading it whole could
// exhaust memory: it is quarantined unread.
var errTooLarge = errors.New("entry larger than the store's cap")

// read reads and verifies key's entry. An entry that fits small stays
// there, its payload small[headerLen:end], and payload is nil; a larger
// one's payload is on the heap. A missing entry, or one that fails
// verification (quarantined), is counted as a miss and reported !ok; the
// caller counts a hit or rejects the payload.
func (s *Store) read(key string, small *[smallEntry]byte) (payload []byte, end int, ok bool) {
	var buf pathBuf
	p := s.appendPath(buf[:0], key)
	n, large, err := s.readEntry(p, small)
	if err != nil {
		if err == errTooLarge {
			// The resident counter may hold the size the entry was
			// written at, not its size now, so nothing is subtracted: a
			// counter too high only brings the next exact eviction pass
			// forward, one too low would put it off.
			s.quarantine(string(p), 0)
		}
		s.misses.Add(1)
		return nil, 0, false
	}
	if large != nil {
		if !verifyEntry(large) {
			s.quarantine(string(p), int64(len(large)))
			s.misses.Add(1)
			return nil, 0, false
		}
		return large[headerLen:], 0, true
	}
	if !verifyEntry(small[:n]) {
		s.quarantine(string(p), int64(n))
		s.misses.Add(1)
		return nil, 0, false
	}
	return nil, n, true
}

func (s *Store) hit(n int) {
	s.hits.Add(1)
	s.bytesRead.Add(int64(n))
}

// reject quarantines key's entry, whose payload of n bytes passed the
// checksum but not the caller, and counts a miss.
func (s *Store) reject(key string, n int) {
	s.quarantine(s.path(key), int64(headerLen+n))
	s.misses.Add(1)
}

// Put stores payload under key, atomically: the entry is written to a
// temporary file in the cache directory and renamed into place, so a
// concurrent Get in any process sees either the old entry, the new entry,
// or nothing — never a partial write. A failed Put only loses caching,
// never correctness, so callers discard the error; but a directory that
// cannot be written (full, read-only, replaced) would then re-simulate
// everything forever and say nothing, so failures are counted in Stats and
// the first one of a Store is reported on stderr.
func (s *Store) Put(key string, payload []byte) error {
	err := s.put(key, payload)
	if err == nil {
		return nil
	}
	if s.putFails.Add(1) == 1 {
		fmt.Fprintf(os.Stderr, "run cache: cannot write to %s: %v; results are not being persisted\n", s.dir, err)
	}
	return fmt.Errorf("runcache: %w", err)
}

func (s *Store) put(key string, payload []byte) error {
	s.sized() // before the rename, or a rescan would count this entry twice
	entry := make([]byte, 0, headerLen+len(payload))
	entry = append(entry, magic...)
	sum := sha256.Sum256(payload)
	entry = append(entry, sum[:]...)
	entry = append(entry, payload...)

	tmp, err := os.CreateTemp(s.dir, tmpPattern)
	if err != nil {
		return err
	}
	_, werr := tmp.Write(entry)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return werr
	}
	p := s.path(key)
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	s.puts.Add(1)
	s.bytesWritten.Add(int64(len(entry)))
	s.indexRecord(filepath.Base(p), int64(len(entry)))
	if s.size.Add(int64(len(entry))) > s.maxBytes {
		s.evict()
	}
	return nil
}

// Drop quarantines key's entry: callers use it when a payload that Load
// accepted later proves unusable (a snapshot that decodes but does not fit
// the platform). The entry is deleted and recomputed, never trusted.
func (s *Store) Drop(key string) {
	p := s.path(key)
	if fi, err := os.Stat(p); err == nil {
		s.quarantine(p, fi.Size())
	}
}

func (s *Store) quarantine(path string, size int64) {
	s.sized() // before the remove, or a rescan would miss what it subtracts
	if os.Remove(path) == nil {
		s.corrupt.Add(1)
		s.size.Add(-size)
		s.indexForget(filepath.Base(path))
	}
}

// Stats snapshots the cumulative counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Puts:           s.puts.Load(),
		CorruptDropped: s.corrupt.Load(),
		Evictions:      s.evictions.Load(),
		BytesRead:      s.bytesRead.Load(),
		BytesWritten:   s.bytesWritten.Load(),
		PutFailures:    s.putFails.Load(),
	}
}

// verifyEntry checks an entry's magic and payload checksum.
func verifyEntry(data []byte) bool {
	if len(data) < headerLen || !bytes.Equal(data[:len(magic)], magic) {
		return false
	}
	sum := sha256.Sum256(data[headerLen:])
	return bytes.Equal(sum[:], data[len(magic):headerLen])
}

// isEntryName reports whether name is an entry file's: 64 lowercase hex
// digits and the suffix. Sizing, eviction and the index count and delete
// only these, so a foreign file that happens to end in the suffix in a
// shared directory is never touched.
func isEntryName(name string) bool {
	if len(name) != entryNameLen || !strings.HasSuffix(name, entrySuffix) {
		return false
	}
	for _, c := range []byte(name[:2*sha256.Size]) {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// isTmpName reports whether name matches Put's CreateTemp pattern. The
// sizing sweep removes only these: a caller may point the store at a
// pre-existing, non-dedicated directory, so anything the store did not
// write itself is never touched.
func isTmpName(name string) bool {
	return strings.HasPrefix(name, "put-") && strings.HasSuffix(name, ".tmp")
}

// scanSize sums resident entry sizes (and sweeps stale temp files left by
// crashed writers). The walk learns the exact directory state, so it also
// rewrites the index sidecar that later stores size from instead.
func (s *Store) scanSize() int64 {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	var total int64
	var seen []indexEntry
	cutoff := time.Now().Add(-time.Hour)
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			continue
		}
		switch {
		case isEntryName(e.Name()):
			total += fi.Size()
			seen = append(seen, indexEntry{Name: e.Name(), Size: fi.Size(), Mtime: fi.ModTime().UnixNano()})
		case isTmpName(e.Name()) && fi.ModTime().Before(cutoff):
			os.Remove(filepath.Join(s.dir, e.Name())) // abandoned tmp file
		}
	}
	s.indexReplace(seen)
	return total
}

// evict deletes least-recently-used entries until the directory fits the
// cap again. It rescans the directory for exact sizes, so the approximate
// running counter self-corrects on every eviction pass. Entries touched by
// recent hits have fresh mtimes and are evicted last.
func (s *Store) evict() {
	s.evictMu.Lock()
	defer s.evictMu.Unlock()

	type ent struct {
		path string
		size int64
		mod  time.Time
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	var files []ent
	var total int64
	cutoff := time.Now().Add(-time.Hour)
	for _, e := range ents {
		if !isEntryName(e.Name()) {
			// Indexed sizing skips the scan that sweeps abandoned temp
			// files, so the eviction walk sweeps them too.
			if isTmpName(e.Name()) {
				if fi, err := e.Info(); err == nil && fi.ModTime().Before(cutoff) {
					os.Remove(filepath.Join(s.dir, e.Name()))
				}
			}
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, ent{filepath.Join(s.dir, e.Name()), fi.Size(), fi.ModTime()})
		total += fi.Size()
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mod.Equal(files[j].mod) {
			return files[i].mod.Before(files[j].mod)
		}
		return files[i].path < files[j].path // deterministic tie-break
	})
	removed := make(map[string]bool)
	for _, f := range files {
		if total <= s.maxBytes {
			break
		}
		if os.Remove(f.path) == nil {
			total -= f.size
			s.evictions.Add(1)
			removed[filepath.Base(f.path)] = true
		}
	}
	s.size.Store(total)
	survivors := make([]indexEntry, 0, len(files)-len(removed))
	for _, f := range files {
		if name := filepath.Base(f.path); !removed[name] {
			survivors = append(survivors, indexEntry{Name: name, Size: f.size, Mtime: f.mod.UnixNano()})
		}
	}
	s.indexReplace(survivors)
}
