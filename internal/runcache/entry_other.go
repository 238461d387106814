//go:build !linux

package runcache

import (
	"io"
	"os"
	"time"
)

// readEntry reads an entry file whole with one open, stat, read and close
// (one read fewer than os.ReadFile, which reads on to EOF), then touches
// its mtime by path for LRU order. An entry larger than max is not read
// (errTooLarge).
func readEntry(path string, max int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() > max {
		return nil, errTooLarge
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, err
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now) // LRU touch; best effort
	return data, nil
}
