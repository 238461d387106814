package runcache

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func fillStore(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
}

// A directory written by one handle must open through the index sidecar —
// no directory scan — with the same resident size the scan would compute.
func TestIndexLoadedOnReopen(t *testing.T) {
	dir := t.TempDir()
	a := open(t, dir, Options{Fingerprint: "fp"})
	if a.IndexLoaded() {
		t.Fatal("first open of an empty directory claims a loaded index")
	}
	fillStore(t, a, 20)
	scanned := a.scanSize() // ground truth (also rewrites the sidecar)

	b := open(t, dir, Options{Fingerprint: "fp"})
	if !b.IndexLoaded() {
		t.Fatal("reopen did not trust the index sidecar")
	}
	if got := b.size.Load(); got != scanned {
		t.Fatalf("indexed open sized the store at %d, scan says %d", got, scanned)
	}
	for i := 0; i < 20; i++ {
		if _, ok := b.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("entry k%d unreadable through indexed handle", i)
		}
	}
}

// Proof that a valid index eliminates the per-entry scan: delete every
// entry file behind the sidecar's back and reopen. A scanning open would
// size the store at zero; an indexed open must report the sidecar's total,
// because it never looked.
func TestIndexSkipsDirectoryScan(t *testing.T) {
	dir := t.TempDir()
	a := open(t, dir, Options{Fingerprint: "fp"})
	fillStore(t, a, 10)
	want := a.size.Load()
	if want <= 0 {
		t.Fatal("fixture stored nothing")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) == entrySuffix {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	b := open(t, dir, Options{Fingerprint: "fp"})
	if !b.IndexLoaded() {
		t.Fatal("valid index not trusted")
	}
	if got := b.size.Load(); got != want {
		t.Fatalf("indexed open reports %d resident bytes; %d proves it scanned", got, want)
	}
	// The stale size is the documented multi-process tolerance: lookups
	// still answer honestly, and the next eviction rescan self-corrects.
	if _, ok := b.Get("k3"); ok {
		t.Fatal("deleted entry served")
	}
}

// Every way the sidecar can be defective must fall back to the full
// rescan, and the fallen-back handle must be indistinguishable from one
// that never had an index: same resident size, same lookup results, same
// Stats after identical operations.
func TestIndexCorruptionFallsBackToRescan(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"truncated":    func(b []byte) []byte { return b[:len(b)/2] },
		"bit-flip":     func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b },
		"bad-magic":    func(b []byte) []byte { b[0] ^= 0xff; return b },
		"empty":        func(b []byte) []byte { return nil },
		"not-an-index": func([]byte) []byte { return []byte("garbage") },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			a := open(t, dir, Options{Fingerprint: "fp"})
			fillStore(t, a, 12)

			// Reference: a handle that opened through the (valid) index.
			ref := open(t, dir, Options{Fingerprint: "fp"})
			if !ref.IndexLoaded() {
				t.Fatal("reference open did not load the index")
			}
			refSize := ref.size.Load()

			idxPath := filepath.Join(dir, indexName)
			data, err := os.ReadFile(idxPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(idxPath, corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}

			b := open(t, dir, Options{Fingerprint: "fp"})
			if b.IndexLoaded() {
				t.Fatal("corrupt index trusted")
			}
			if got := b.size.Load(); got != refSize {
				t.Fatalf("rescan sized the store at %d, indexed open at %d", got, refSize)
			}
			for i := 0; i < 12; i++ {
				if _, ok := b.Get(fmt.Sprintf("k%d", i)); !ok {
					t.Fatalf("entry k%d lost in fallback", i)
				}
			}
			if got, want := b.Stats(), ref.stats12Hits(t); got != want {
				t.Fatalf("stats after identical ops differ: %+v vs %+v", got, want)
			}
			// The fallback rescan rewrites the sidecar; the next open must
			// trust it again.
			c := open(t, dir, Options{Fingerprint: "fp"})
			if !c.IndexLoaded() {
				t.Fatal("rescan did not repair the index")
			}
		})
	}
}

// A sidecar that lists a file not named like an entry, as one written by
// a scan that took any name with the entry suffix for an entry, is not
// trusted: sizing rescans and the rewritten sidecar drops the name.
func TestIndexNamingForeignFileFallsBackToRescan(t *testing.T) {
	dir := t.TempDir()
	a := open(t, dir, Options{Fingerprint: "fp"})
	fillStore(t, a, 3)
	if err := os.WriteFile(filepath.Join(dir, "startup.rc"), []byte("user file"), 0o644); err != nil {
		t.Fatal(err)
	}
	a.idxMu.Lock()
	a.idx["startup.rc"] = indexEntry{Name: "startup.rc", Size: 9}
	a.writeIndexLocked()
	a.idxMu.Unlock()

	b := open(t, dir, Options{Fingerprint: "fp"})
	if b.IndexLoaded() {
		t.Fatal("a sidecar naming a foreign file was trusted")
	}
	if _, ok := b.idx["startup.rc"]; ok {
		t.Error("the rescan indexed the foreign file")
	}
	if c := open(t, dir, Options{Fingerprint: "fp"}); !c.IndexLoaded() {
		t.Error("the rescan did not repair the sidecar")
	}
}

// stats12Hits performs the same 12 lookups the fallback handle did and
// returns the resulting counters, giving the corruption test an
// operation-for-operation reference.
func (s *Store) stats12Hits(t *testing.T) Stats {
	t.Helper()
	for i := 0; i < 12; i++ {
		if _, ok := s.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("reference entry k%d unreadable", i)
		}
	}
	return s.Stats()
}

// Put, Drop and corruption-quarantine must all keep the sidecar current,
// so the next open reflects them without scanning.
func TestIndexTracksMutations(t *testing.T) {
	dir := t.TempDir()
	a := open(t, dir, Options{Fingerprint: "fp"})
	fillStore(t, a, 6)
	a.Drop("k0")
	// Corrupt k1 on disk; Get quarantines it.
	p := a.path("k1")
	if err := os.WriteFile(p, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Get("k1"); ok {
		t.Fatal("corrupt entry served")
	}

	b := open(t, dir, Options{Fingerprint: "fp"})
	if !b.IndexLoaded() {
		t.Fatal("index not loaded after mutations")
	}
	if got := b.size.Load(); got != b.scanSize() {
		t.Fatalf("indexed size %d != scanned size after mutations", got)
	}
	for i, want := range []bool{false, false, true, true, true, true} {
		_, ok := b.Get(fmt.Sprintf("k%d", i))
		if ok != want {
			t.Fatalf("entry k%d present=%t, want %t", i, ok, want)
		}
	}
}

// Eviction rewrites the sidecar with the survivors.
func TestIndexTracksEviction(t *testing.T) {
	dir := t.TempDir()
	payload := make([]byte, 1000)
	a := open(t, dir, Options{Fingerprint: "fp", MaxBytes: 4500})
	for i := 0; i < 8; i++ {
		if err := a.Put(fmt.Sprintf("k%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if a.Stats().Evictions == 0 {
		t.Fatal("cap never triggered")
	}
	b := open(t, dir, Options{Fingerprint: "fp", MaxBytes: 4500})
	if !b.IndexLoaded() {
		t.Fatal("index not loaded after eviction")
	}
	if got, want := b.size.Load(), b.scanSize(); got != want {
		t.Fatalf("indexed size %d != scanned size %d after eviction", got, want)
	}
}

// A reopened store sizes itself from the sidecar at its first write — a
// quarantine or a Put — so that write adjusts the recorded entries instead
// of rewriting the sidecar from an index that was never loaded.
func TestFirstWriteAfterReopenKeepsIndex(t *testing.T) {
	for _, quarantineFirst := range []bool{false, true} {
		dir := t.TempDir()
		a := open(t, dir, Options{Fingerprint: "fp"})
		fillStore(t, a, 5)
		if err := os.WriteFile(a.path("k0"), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
		b := open(t, dir, Options{Fingerprint: "fp"})
		if quarantineFirst {
			if _, ok := b.Get("k0"); ok {
				t.Fatal("corrupt entry served")
			}
		}
		if err := b.Put("new", []byte("payload-new")); err != nil {
			t.Fatal(err)
		}
		if _, ok := b.Get("k0"); ok {
			t.Fatal("corrupt entry served")
		}
		c := open(t, dir, Options{Fingerprint: "fp"})
		if !c.IndexLoaded() {
			t.Fatal("index not loaded after the reopened store's writes")
		}
		if got, want := c.size.Load(), c.scanSize(); got != want {
			t.Errorf("quarantine first=%t: indexed size %d != scanned size %d", quarantineFirst, got, want)
		}
	}
}
