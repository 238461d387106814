package runcache

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func open(t *testing.T, dir string, o Options) *Store {
	t.Helper()
	s, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundtrip(t *testing.T) {
	s := open(t, t.TempDir(), Options{Fingerprint: "fp"})
	if _, ok := s.Get("k"); ok {
		t.Fatal("empty store reported a hit")
	}
	payload := []byte("the payload")
	if err := s.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	// Overwrite is allowed and atomic.
	if err := s.Put("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get("k"); string(got) != "v2" {
		t.Fatalf("after overwrite Get = %q", got)
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 2 {
		t.Errorf("stats = %+v; want 2 hits, 1 miss, 2 puts", st)
	}
}

// TestFingerprintInvalidates: same directory, same key, different
// fingerprint — a different world. Entries written under one fingerprint
// are unreachable from the other, which is exactly how a commit or schema
// bump invalidates the whole cache without a flush.
func TestFingerprintInvalidates(t *testing.T) {
	dir := t.TempDir()
	a := open(t, dir, Options{Fingerprint: "schema-v1|rev-aaa"})
	b := open(t, dir, Options{Fingerprint: "schema-v1|rev-bbb"})
	if err := a.Put("k", []byte("old world")); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Get("k"); ok {
		t.Error("entry leaked across fingerprints")
	}
	if got, ok := a.Get("k"); !ok || string(got) != "old world" {
		t.Errorf("original fingerprint lost its entry: %q, %v", got, ok)
	}
}

// entryFiles lists the store's resident entry files.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), entrySuffix) {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// corruptAndGet writes one entry, mangles its file with mutate, and
// verifies the store quarantines it: miss, file deleted, counted, and the
// key is recomputable (a fresh Put works).
func corruptAndGet(t *testing.T, mutate func(path string)) {
	t.Helper()
	dir := t.TempDir()
	s := open(t, dir, Options{Fingerprint: "fp"})
	if err := s.Put("k", []byte("precious bytes")); err != nil {
		t.Fatal(err)
	}
	files := entryFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("expected 1 entry file, found %d", len(files))
	}
	mutate(files[0])

	if _, ok := s.Get("k"); ok {
		t.Fatal("corrupted entry served as a hit")
	}
	if st := s.Stats(); st.CorruptDropped != 1 {
		t.Errorf("CorruptDropped = %d, want 1", st.CorruptDropped)
	}
	if remaining := entryFiles(t, dir); len(remaining) != 0 {
		t.Errorf("corrupted entry not quarantined: %v", remaining)
	}
	// The slot is clean: recompute-and-store works again.
	if err := s.Put("k", []byte("recomputed")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k"); !ok || string(got) != "recomputed" {
		t.Errorf("recomputed entry not served: %q, %v", got, ok)
	}
}

func TestCorruptTruncated(t *testing.T) {
	corruptAndGet(t, func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCorruptBitFlip(t *testing.T) {
	corruptAndGet(t, func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0x40 // flip a payload bit
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCorruptEmptyFile(t *testing.T) {
	corruptAndGet(t, func(path string) {
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOversizedEntryIsQuarantined: an entry grown past the store's cap
// (no resident entry can be larger: put evicts down to the cap, the newest
// entry last) is quarantined unread and counted as a miss, so one
// oversized file cannot make a reader allocate its whole size. The entry
// is a valid one — its payload is the zeros of a sparse file a few KiB
// over a small cap — so only the size check can turn it away.
func TestOversizedEntryIsQuarantined(t *testing.T) {
	dir := t.TempDir()
	const max = 4 << 10
	s := open(t, dir, Options{Fingerprint: "fp", MaxBytes: max})
	if err := s.Put("k", []byte("precious bytes")); err != nil {
		t.Fatal(err)
	}
	const payloadLen = max + 3<<10
	sum := sha256.Sum256(make([]byte, payloadLen))
	if err := os.WriteFile(s.path("k"), append(append([]byte{}, magic...), sum[:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(s.path("k"), headerLen+payloadLen); err != nil {
		t.Fatal(err)
	}
	if s.Load("k", func([]byte) error { t.Error("decode ran on an oversized entry"); return nil }) {
		t.Fatal("oversized entry served as a hit")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 1 || st.CorruptDropped != 1 || st.BytesRead != 0 {
		t.Errorf("stats = %+v; want 0 hits, 1 miss, 1 quarantined entry, 0 bytes read", st)
	}
	if remaining := entryFiles(t, dir); len(remaining) != 0 {
		t.Errorf("oversized entry not quarantined: %v", remaining)
	}
	if err := s.Put("k", []byte("recomputed")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k"); !ok || string(got) != "recomputed" {
		t.Errorf("recomputed entry not served: %q, %v", got, ok)
	}
}

// TestRoundTripAcrossReadBuffer: entries that end short of, at and just
// past the first read's buffer, and one many times its size, read back
// whole. The empty payload makes the smallest valid entry.
func TestRoundTripAcrossReadBuffer(t *testing.T) {
	s := open(t, t.TempDir(), Options{Fingerprint: "fp"})
	for _, n := range []int{0, smallEntry - 1 - headerLen, smallEntry - headerLen, smallEntry + 1 - headerLen, 64 << 10} {
		key := fmt.Sprintf("k%d", n)
		payload := bytes.Repeat([]byte{byte(n)}, n)
		if err := s.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
			t.Errorf("entry of %d bytes: Get = %d bytes, %v; want the %d-byte payload", headerLen+n, len(got), ok, n)
		}
	}
	if st := s.Stats(); st.Hits != 5 || st.Misses != 0 || st.CorruptDropped != 0 {
		t.Errorf("stats = %+v; want 5 hits, 0 misses, 0 quarantined", st)
	}
}

// TestEntryAtCapIsAHit: an entry of exactly the cap is served; a valid
// one a byte over is quarantined unread, for caps below, at and above the
// first read's buffer.
func TestEntryAtCapIsAHit(t *testing.T) {
	for _, max := range []int{100, smallEntry - 1, smallEntry, smallEntry + 1, 4 << 10} {
		t.Run(fmt.Sprint(max), func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir, Options{Fingerprint: "fp", MaxBytes: int64(max)})
			payload := bytes.Repeat([]byte("a"), max-headerLen)
			if err := s.Put("at", payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get("at"); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("entry at the cap: Get = %d bytes, %v", len(got), ok)
			}
			over := bytes.Repeat([]byte("b"), max+1-headerLen)
			sum := sha256.Sum256(over)
			entry := append(append(append([]byte{}, magic...), sum[:]...), over...)
			if err := os.WriteFile(s.path("over"), entry, 0o644); err != nil {
				t.Fatal(err)
			}
			if s.Load("over", func([]byte) error { t.Error("decode ran on an entry over the cap"); return nil }) {
				t.Fatal("entry over the cap served as a hit")
			}
			if _, err := os.Stat(s.path("over")); !os.IsNotExist(err) {
				t.Errorf("entry over the cap not quarantined (err=%v)", err)
			}
			if st := s.Stats(); st.Hits != 1 || st.Misses != 1 || st.CorruptDropped != 1 || st.BytesRead != int64(len(payload)) {
				t.Errorf("stats = %+v; want 1 hit, 1 miss, 1 quarantined entry", st)
			}
		})
	}
}

// TestEntryPathMatchesJoin: the path built in fixed buffers is the one
// filepath.Join gives, for directories Join cleans, and for a key too long
// for the hash buffer.
func TestEntryPathMatchesJoin(t *testing.T) {
	long := strings.Repeat("k", 5<<10)
	for _, dir := range []string{"rel/dir", "rel/dir/", ".", "./a/../b", "/abs//y/", "/", strings.Repeat("d", 300)} {
		s := newStore(dir, Options{Fingerprint: "fp"})
		for _, key := range []string{"k", long} {
			sum := sha256.Sum256([]byte(string(s.prefix) + key))
			want := filepath.Join(dir, fmt.Sprintf("%x", sum)+entrySuffix)
			if got := s.path(key); got != want {
				t.Errorf("dir %.20q, key of %d bytes: path %q, want %q", dir, len(key), got, want)
			}
		}
	}
}

// TestLongKeyHits: keys of several KiB, which hash from the heap, hit, and
// two that differ only in their last byte are two entries.
func TestLongKeyHits(t *testing.T) {
	s := open(t, t.TempDir(), Options{Fingerprint: "fp"})
	base := strings.Repeat("k", 6<<10)
	for _, c := range []string{"a", "b"} {
		if err := s.Put(base+c, []byte(c)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []string{"a", "b"} {
		if got, ok := s.Get(base + c); !ok || string(got) != c {
			t.Errorf("long key ending %q: Get = %q, %v", c, got, ok)
		}
	}
}

// TestDropQuarantines: a caller-reported decode failure (checksum fine,
// schema drifted) deletes the entry.
func TestDropQuarantines(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{Fingerprint: "fp"})
	if err := s.Put("k", []byte("old schema")); err != nil {
		t.Fatal(err)
	}
	s.Drop("k")
	if _, ok := s.Get("k"); ok {
		t.Error("dropped entry still served")
	}
	if st := s.Stats(); st.CorruptDropped != 1 {
		t.Errorf("CorruptDropped = %d, want 1", st.CorruptDropped)
	}
}

// TestLoadRejectCountsAsMiss: a payload that passes the checksum but fails
// the caller's decode is quarantined and counted as a miss, not a hit —
// delete + count + miss, like any other entry that fails verification.
func TestLoadRejectCountsAsMiss(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{Fingerprint: "fp"})
	if err := s.Put("k", []byte("not what the caller expects")); err != nil {
		t.Fatal(err)
	}
	reject := errors.New("cannot decode")
	if s.Load("k", func([]byte) error { return reject }) {
		t.Fatal("Load accepted a payload its decode rejected")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 1 || st.CorruptDropped != 1 || st.BytesRead != 0 {
		t.Errorf("stats = %+v; want 0 hits, 1 miss, 1 quarantined entry, 0 bytes read", st)
	}
	if remaining := entryFiles(t, dir); len(remaining) != 0 {
		t.Errorf("rejected entry not quarantined: %v", remaining)
	}

	if err := s.Put("k", []byte("good")); err != nil {
		t.Fatal(err)
	}
	var got string
	if !s.Load("k", func(b []byte) error { got = string(b); return nil }) || got != "good" {
		t.Errorf("Load = %q; want the stored payload", got)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v; want 1 hit, 1 miss", st)
	}
}

// TestWarmHitsOnlyTouch: a process that only reads a filled store does
// not size it, so it neither rewrites the index sidecar (a corrupt one is
// left for the next writer's rescan) nor creates, sweeps or puts a file;
// its one write per hit is the LRU touch, which refreshes every entry it
// read.
func TestWarmHitsOnlyTouch(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, open(t, dir, Options{Fingerprint: "fp"}), 8)
	// Plant old mtimes so filesystem timestamp granularity cannot hide a
	// touch.
	planted := time.Now().Add(-time.Hour).Truncate(time.Second)
	for _, p := range entryFiles(t, dir) {
		if err := os.Chtimes(p, planted, planted); err != nil {
			t.Fatal(err)
		}
	}
	// A bit-flipped sidecar: a store that sized itself would rescan and
	// rewrite it.
	idxPath := filepath.Join(dir, indexName)
	idx, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	idx[len(idx)-2] ^= 0x40
	if err := os.WriteFile(idxPath, idx, 0o644); err != nil {
		t.Fatal(err)
	}
	listing := func() string {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return strings.Join(names, " ")
	}
	before := listing()

	s := open(t, dir, Options{Fingerprint: "fp"})
	for i := 0; i < 8; i++ {
		if _, ok := s.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("lost entry k%d", i)
		}
	}
	if after := listing(); after != before {
		t.Errorf("directory listing changed:\nbefore %s\nafter  %s", before, after)
	}
	if got, err := os.ReadFile(idxPath); err != nil || !bytes.Equal(got, idx) {
		t.Errorf("warm hits rewrote the index sidecar (err %v)", err)
	}
	if st := s.Stats(); st.Puts != 0 || st.Hits != 8 {
		t.Errorf("stats = %+v; want 8 hits, 0 puts", st)
	}
	for _, p := range entryFiles(t, dir) {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if !fi.ModTime().After(planted) {
			t.Errorf("%s: a hit left its mtime at %v", filepath.Base(p), fi.ModTime())
		}
	}
}

// TestEvictionOrder: with a tight byte cap, the store evicts strictly by
// recency — stalest mtime first — and hits refresh recency. Mtimes are
// planted explicitly so filesystem timestamp granularity cannot blur the
// order.
func TestEvictionOrder(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 100)
	entrySize := int64(headerLen + len(payload))
	// Room for three entries; the fourth Put must evict exactly one.
	s := open(t, dir, Options{Fingerprint: "fp", MaxBytes: 3 * entrySize})

	base := time.Now().Add(-10 * time.Hour)
	for i, key := range []string{"a", "b", "c"} {
		if err := s.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		mt := base.Add(time.Duration(i) * time.Hour) // a stalest, c freshest
		if err := os.Chtimes(s.path(key), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a": the hit refreshes its mtime, so "b" becomes the LRU victim.
	if _, ok := s.Get("a"); !ok {
		t.Fatal("lost entry a")
	}
	if err := s.Put("d", payload); err != nil {
		t.Fatal(err)
	}

	for key, want := range map[string]bool{"a": true, "b": false, "c": true, "d": true} {
		if _, ok := s.Get(key); ok != want {
			t.Errorf("after eviction, Get(%q) = %v, want %v", key, ok, want)
		}
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
}

// TestEvictionConverges: hammering far past the cap leaves the directory
// at or under the cap.
func TestEvictionConverges(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("y"), 50)
	entrySize := int64(headerLen + len(payload))
	cap := 5 * entrySize
	s := open(t, dir, Options{Fingerprint: "fp", MaxBytes: cap})
	for i := 0; i < 40; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	var total int64
	for _, f := range entryFiles(t, dir) {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	if total > cap {
		t.Errorf("resident %d bytes exceeds cap %d after eviction", total, cap)
	}
}

// TestConcurrentSharedDir models the acceptance scenario: two store
// handles — as two goroutines, standing in for two processes — share one
// directory under concurrent mixed Get/Put load. Values are keyed
// deterministically (as deterministic simulations are), so every hit must
// return exactly the bytes any writer stored for that key.
func TestConcurrentSharedDir(t *testing.T) {
	dir := t.TempDir()
	a := open(t, dir, Options{Fingerprint: "fp"})
	b := open(t, dir, Options{Fingerprint: "fp"})

	value := func(k int) []byte { return []byte(fmt.Sprintf("value-for-%d", k)) }
	const keys = 16
	var wg sync.WaitGroup
	for _, s := range []*Store{a, b} {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(s *Store, g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					k := (i*7 + g) % keys
					key := fmt.Sprintf("key-%d", k)
					if got, ok := s.Get(key); ok {
						if !bytes.Equal(got, value(k)) {
							t.Errorf("key %q: got %q, want %q", key, got, value(k))
							return
						}
					} else if err := s.Put(key, value(k)); err != nil {
						t.Errorf("Put(%q): %v", key, err)
						return
					}
				}
			}(s, g)
		}
	}
	wg.Wait()
	// Every key converged to its value in both handles.
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%d", k)
		for i, s := range []*Store{a, b} {
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, value(k)) {
				t.Errorf("handle %d key %q: got %q, %v", i, key, got, ok)
			}
		}
	}
}

// TestOpenRecoversSize: reopening a populated directory accounts existing
// entries toward the cap once the store is sized (IndexLoaded sizes it, as
// the first write would).
func TestOpenRecoversSize(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("z"), 100)
	entrySize := int64(headerLen + len(payload))
	s1 := open(t, dir, Options{Fingerprint: "fp", MaxBytes: 10 * entrySize})
	for i := 0; i < 3; i++ {
		if err := s1.Put(fmt.Sprintf("k%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	s2 := open(t, dir, Options{Fingerprint: "fp", MaxBytes: 10 * entrySize})
	s2.IndexLoaded()
	if got := s2.size.Load(); got != 3*entrySize {
		t.Errorf("reopened size = %d, want %d", got, 3*entrySize)
	}
	for i := 0; i < 3; i++ {
		if _, ok := s2.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("reopened store lost k%d", i)
		}
	}
}

func TestFingerprintSchemaOnlyFallback(t *testing.T) {
	// Test binaries carry no VCS stamp, so the fallback path is what runs
	// here; the schema tag must always survive into the fingerprint.
	fp := Fingerprint("repro-exp/v1")
	if !strings.HasPrefix(fp, "repro-exp/v1") {
		t.Errorf("Fingerprint dropped the schema tag: %q", fp)
	}
	if _, _, ok := VCSInfo(); ok {
		t.Error("VCSInfo reported a stamp inside a test binary; the fallback test is not exercising the fallback")
	}
}

// TestOpenSweepsOnlyAbandonedTmpFiles: the sizing sweep exists to reap
// put-*.tmp files left by crashed writers — and must remove nothing else.
// A user may point -cache-dir at a pre-existing directory (".", a results
// folder); the store must never delete their files, however old. Sizing
// waits for the first write, so a handle that only reads sweeps nothing.
func TestOpenSweepsOnlyAbandonedTmpFiles(t *testing.T) {
	dir := t.TempDir()
	old := time.Now().Add(-2 * time.Hour)
	write := func(name string, aged bool) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if aged {
			if err := os.Chtimes(p, old, old); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	kept := []string{
		write("results.csv", true),       // old foreign file: untouchable
		write("notes.tmp", true),         // .tmp suffix but not ours: untouchable
		write("put-notes.txt", true),     // put- prefix but not ours: untouchable
		write("put-fresh123.tmp", false), // ours, but an in-flight writer's
	}
	abandoned := write("put-stale456.tmp", true) // ours and stale: swept

	s := open(t, dir, Options{Fingerprint: "fp"})
	s.Get("k")
	if _, err := os.Stat(abandoned); err != nil {
		t.Errorf("a read-only handle swept %s: %v", filepath.Base(abandoned), err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	for _, p := range kept {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("sizing sweep removed %s: %v", filepath.Base(p), err)
		}
	}
	if _, err := os.Stat(abandoned); !os.IsNotExist(err) {
		t.Errorf("abandoned tmp file survived the sweep (err=%v)", err)
	}
}

// TestEvictionSparesForeignFiles: sizing and eviction count and delete
// only files named like entries (64 lowercase hex digits and the suffix),
// so a foreign file with the entry suffix, however stale, is neither
// counted toward the cap nor evicted.
func TestEvictionSparesForeignFiles(t *testing.T) {
	dir := t.TempDir()
	old := time.Now().Add(-48 * time.Hour)
	hexName := fmt.Sprintf("%x", sha256.Sum256(nil))
	var foreign []string
	for _, name := range []string{"startup.rc", strings.ToUpper(hexName) + entrySuffix, hexName + "0" + entrySuffix} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, bytes.Repeat([]byte("u"), 100), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
		foreign = append(foreign, p)
	}
	payload := bytes.Repeat([]byte("x"), 100)
	entrySize := int64(headerLen + len(payload))
	s := open(t, dir, Options{Fingerprint: "fp", MaxBytes: 3 * entrySize})
	if s.IndexLoaded(); s.size.Load() != 0 {
		t.Errorf("sizing counted %d bytes of foreign files", s.size.Load())
	}
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range foreign {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("eviction removed the foreign file %s: %v", filepath.Base(p), err)
		}
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1 (of the store's own entries)", st.Evictions)
	}
	if got := len(entryFiles(t, dir)) - len(foreign); got != 3 {
		t.Errorf("%d entries resident, want 3", got)
	}
}

// TestUnwritableDirIsCountedAndReportedOnce: a directory that stops
// accepting writes after Open (full, read-only, replaced) must not fail
// silently — callers discard Put's error by design, so the store counts
// every failed put and says so on stderr exactly once. chmod does not bind
// root, so the directory is replaced by a regular file instead.
func TestUnwritableDirIsCountedAndReportedOnce(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s := open(t, dir, Options{Fingerprint: "fp"})
	if err := s.Put("before", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	errFile := filepath.Join(t.TempDir(), "stderr")
	f, err := os.Create(errFile)
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = f
	for i := 0; i < 3; i++ {
		if s.Put(fmt.Sprintf("k%d", i), []byte("payload")) == nil {
			t.Error("Put into a directory replaced by a file succeeded")
		}
	}
	os.Stderr = saved
	f.Close()

	if st := s.Stats(); st.PutFailures != 3 || st.Puts != 1 {
		t.Errorf("stats = %+v; want PutFailures=3, Puts=1", st)
	}
	out, err := os.ReadFile(errFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "run cache: cannot write to "+dir+": ") ||
		!strings.HasSuffix(lines[0], "; results are not being persisted") {
		t.Errorf("stderr = %q; want exactly one 'run cache: cannot write to %s: ...' line", out, dir)
	}
}
