//go:build !linux

package runcache

import (
	"io"
	"os"
	"time"
)

// readEntry reads the entry file at path whole, then touches its mtime by
// path for LRU order. It follows the Linux rule (entry_linux.go): the
// first read fills at most min(smallEntry, max+1) bytes of small, where
// an entry that fits is left (its length n); fewer is the whole file (a short read that did not reach EOF can only fail the
// checksum), max+1 is an entry larger than max (errTooLarge), and a full
// buffer is followed by a stat, the cap check and an exact-size read of
// the rest.
func (s *Store) readEntry(path []byte, small *[smallEntry]byte) (n int, large []byte, err error) {
	name := string(path)
	f, err := os.Open(name)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()

	limit := len(small)
	if s.maxBytes < int64(limit) {
		limit = int(s.maxBytes) + 1
	}
	if n, err = f.Read(small[:limit]); err != nil && err != io.EOF {
		return 0, nil, err
	}
	switch {
	case int64(n) > s.maxBytes:
		return 0, nil, errTooLarge
	case n == limit:
		fi, err := f.Stat()
		if err != nil {
			return 0, nil, err
		}
		if fi.Size() > s.maxBytes {
			return 0, nil, errTooLarge
		}
		large = make([]byte, fi.Size())
		if _, err := io.ReadFull(f, large[copy(large, small[:n]):]); err != nil {
			return 0, nil, err
		}
	}
	now := time.Now()
	_ = os.Chtimes(name, now, now) // LRU touch; best effort
	return n, large, nil
}
