//go:build !linux

package runcache

import (
	"io"
	"os"
	"time"
)

// readEntry reads the entry file at path whole, then touches its mtime by
// path for LRU order. It follows the Linux rule (entry_linux.go): the
// first read fills at most min(smallEntry, max+1) bytes; fewer is the
// whole file (a short read that did not reach EOF can only fail the
// checksum), max+1 is an entry larger than max (errTooLarge), and a full
// buffer is followed by a stat, the cap check and an exact-size read of
// the rest.
func (s *Store) readEntry(path []byte) ([]byte, error) {
	name := string(path)
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var small [smallEntry]byte
	limit := len(small)
	if s.maxBytes < int64(limit) {
		limit = int(s.maxBytes) + 1
	}
	n, err := f.Read(small[:limit])
	if err != nil && err != io.EOF {
		return nil, err
	}
	var data []byte
	switch {
	case int64(n) > s.maxBytes:
		return nil, errTooLarge
	case n < limit:
		data = append([]byte(nil), small[:n]...)
	default:
		fi, err := f.Stat()
		if err != nil {
			return nil, err
		}
		if fi.Size() > s.maxBytes {
			return nil, errTooLarge
		}
		data = make([]byte, fi.Size())
		if _, err := io.ReadFull(f, data[copy(data, small[:n]):]); err != nil {
			return nil, err
		}
	}
	now := time.Now()
	_ = os.Chtimes(name, now, now) // LRU touch; best effort
	return data, nil
}
