//go:build linux

package runcache

import (
	"io"
	"syscall"
	"time"
	"unsafe"
)

// readEntry reads an entry file whole through one descriptor: open, fstat,
// read, LRU touch, close. An entry larger than max is not read
// (errTooLarge). The descriptor is a raw one because os.Open also tries to
// register a regular file with the poller, which fails after setting and
// clearing O_NONBLOCK, and the touch is utimensat on the descriptor (a
// NULL path) because os.Chtimes would walk the path a second time.
func readEntry(path string, max int64) ([]byte, error) {
	var fd int
	var err error
	for {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	defer syscall.Close(fd)
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil {
		return nil, err
	}
	if int64(st.Size) > max {
		return nil, errTooLarge
	}
	data := make([]byte, st.Size)
	for n := 0; n < len(data); {
		m, err := syscall.Read(fd, data[n:])
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return nil, err
		case m == 0:
			return nil, io.ErrUnexpectedEOF
		}
		n += m
	}
	now := syscall.NsecToTimespec(time.Now().UnixNano())
	times := [2]syscall.Timespec{now, now} // atime, mtime
	// LRU touch; best effort.
	_, _, _ = syscall.Syscall6(syscall.SYS_UTIMENSAT, uintptr(fd), 0, uintptr(unsafe.Pointer(&times)), 0, 0, 0)
	return data, nil
}
