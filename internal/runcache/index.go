package runcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Index sidecar: sizing the store used to pay one ReadDir plus one stat
// per entry to learn the directory's resident size, which grows linearly
// with cache population (tens of thousands of entries after a few -full
// sweeps). The sidecar persists that answer — entry names, sizes and
// mtimes plus the total — so a valid index makes sizing one read with zero
// per-entry stats. Only writers size the store (sized, at the first Put,
// quarantine or Drop), so a process that only reads never opens the
// sidecar. It is advisory only: every mutation path that learns exact
// directory state (the eviction rescan, the fallback scan) rewrites it,
// any validation failure falls back to the full scan, and LRU decisions
// still come from real file mtimes at eviction time. A concurrently
// mutating sibling process can leave the sidecar stale; that only skews
// the approximate size counter, which the next eviction pass corrects
// exactly — the same tolerance the counter always had.
//
// Layout: magic "RCINDEX1", SHA-256 of the JSON body, body. The checksum
// makes truncation or bit flips a detected mismatch, not a wrong size.

const (
	indexName    = "index.rci"
	indexVersion = 1
)

var indexMagic = []byte("RCINDEX1")

const indexHeaderLen = 8 + sha256.Size

type indexEntry struct {
	Name  string `json:"name"`
	Size  int64  `json:"size"`
	Mtime int64  `json:"mtime"` // unix nanoseconds; advisory (see package comment)
}

type indexBody struct {
	Version int          `json:"version"`
	Count   int          `json:"count"`
	Total   int64        `json:"total"`
	Entries []indexEntry `json:"entries"`
}

// IndexLoaded reports whether sizing the store trusted a valid index
// sidecar (true) or fell back to the full directory scan (false). It is
// not a pure query: if no write has sized the store yet, it does, which
// reads the sidecar or, failing that, rescans the directory, sweeping
// abandoned temp files and rewriting the sidecar.
func (s *Store) IndexLoaded() bool {
	s.sized()
	return s.idxLoaded
}

// loadIndex reads and validates the sidecar. ok is false — caller must
// fall back to the scan — on any defect: missing file, bad magic, checksum
// mismatch, unparseable body, version skew, or an entry count that
// contradicts the body's own list.
func (s *Store) loadIndex() (total int64, ok bool) {
	data, err := os.ReadFile(filepath.Join(s.dir, indexName))
	if err != nil || len(data) < indexHeaderLen || !bytes.Equal(data[:len(indexMagic)], indexMagic) {
		return 0, false
	}
	body := data[indexHeaderLen:]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], data[len(indexMagic):indexHeaderLen]) {
		return 0, false
	}
	var b indexBody
	if json.Unmarshal(body, &b) != nil || b.Version != indexVersion || b.Count != len(b.Entries) {
		return 0, false
	}
	idx := make(map[string]indexEntry, len(b.Entries))
	for _, e := range b.Entries {
		if !isEntryName(e.Name) {
			return 0, false
		}
		idx[e.Name] = e
	}
	s.idx = idx
	return b.Total, true
}

// writeIndexLocked persists the in-memory index, atomically (same tmp +
// rename discipline as entries; the tmp name matches isTmpName so a
// crashed write is swept like any abandoned put). Callers hold idxMu.
// Write errors are ignored: a missing or stale sidecar only costs the next
// store that sizes the directory a scan.
func (s *Store) writeIndexLocked() {
	b := indexBody{Version: indexVersion, Count: len(s.idx), Entries: make([]indexEntry, 0, len(s.idx))}
	for _, e := range s.idx {
		b.Total += e.Size
		b.Entries = append(b.Entries, e)
	}
	sort.Slice(b.Entries, func(i, j int) bool { return b.Entries[i].Name < b.Entries[j].Name })
	body, err := json.Marshal(b)
	if err != nil {
		return
	}
	data := make([]byte, 0, indexHeaderLen+len(body))
	data = append(data, indexMagic...)
	sum := sha256.Sum256(body)
	data = append(data, sum[:]...)
	data = append(data, body...)

	tmp, err := os.CreateTemp(s.dir, tmpPattern)
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if os.Rename(tmp.Name(), filepath.Join(s.dir, indexName)) != nil {
		os.Remove(tmp.Name())
	}
}

// indexRecord notes a written entry (Put's rename just succeeded).
func (s *Store) indexRecord(name string, size int64) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if s.idx == nil {
		s.idx = make(map[string]indexEntry)
	}
	s.idx[name] = indexEntry{Name: name, Size: size, Mtime: time.Now().UnixNano()}
	s.writeIndexLocked()
}

// indexForget notes a removed entry (quarantine or caller-reported decode
// failure).
func (s *Store) indexForget(name string) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if _, ok := s.idx[name]; !ok {
		return
	}
	delete(s.idx, name)
	s.writeIndexLocked()
}

// indexReplace installs the exact directory state a rescan just observed
// (the fallback scan when sizing, or the eviction pass's survivors).
func (s *Store) indexReplace(entries []indexEntry) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	s.idx = make(map[string]indexEntry, len(entries))
	for _, e := range entries {
		s.idx[e.Name] = e
	}
	s.writeIndexLocked()
}
