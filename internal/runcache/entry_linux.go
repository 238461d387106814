//go:build linux

package runcache

import (
	"io"
	"syscall"
	"time"
	"unsafe"
)

const atFDCWD = -0x64 // openat's "relative to the working directory"

// readEntry reads the entry file at path whole through one raw descriptor,
// in four system calls: openat, read, LRU touch, close. path, appended
// with a NUL, is passed to openat as it is, with no string copy. An entry
// that fits small is left there, its length n; a larger one is returned
// in large.
//
// The open asks for O_NOATIME: the store keeps its own clock, the mtime
// touch, so the kernel's atime write inside the read would be a second
// inode write per hit. The flag needs ownership of the file (or
// CAP_FOWNER); on EPERM the open is retried without it, and the store
// remembers the refusal so a shared directory does not pay two opens a
// hit.
//
// The first read fills at most min(smallEntry, max+1) bytes of small.
// Fewer than that is the whole file: a short read that did not reach EOF could only
// fail the checksum, which quarantines the entry, never serves it. max+1
// bytes is an entry larger than max (errTooLarge), quarantined unread. A
// full smallEntry buffer means a larger entry (snapshots, JSON payloads):
// fstat, the cap check, and the rest read into an exact-size slice.
//
// The descriptor is a raw one because os.Open also tries to register a
// regular file with the poller, which fails after setting and clearing
// O_NONBLOCK, and the touch is utimensat on the descriptor (a NULL path)
// because os.Chtimes would walk the path a second time.
func (s *Store) readEntry(path []byte, small *[smallEntry]byte) (n int, large []byte, err error) {
	path = append(path, 0)
	flags := syscall.O_RDONLY | syscall.O_CLOEXEC
	noatime := !s.atimeRefused.Load()
	if noatime {
		flags |= syscall.O_NOATIME
	}
	fd, err := openat(path, flags)
	if err == syscall.EPERM && noatime {
		s.atimeRefused.Store(true)
		fd, err = openat(path, flags&^syscall.O_NOATIME)
	}
	if err != nil {
		return 0, nil, err
	}
	defer syscall.Close(fd)

	limit := len(small)
	if s.maxBytes < int64(limit) {
		limit = int(s.maxBytes) + 1
	}
	if n, err = read(fd, small[:limit]); err != nil {
		return 0, nil, err
	}
	switch {
	case int64(n) > s.maxBytes:
		return 0, nil, errTooLarge
	case n == limit:
		var st syscall.Stat_t
		if err := syscall.Fstat(fd, &st); err != nil {
			return 0, nil, err
		}
		if int64(st.Size) > s.maxBytes {
			return 0, nil, errTooLarge
		}
		large = make([]byte, st.Size)
		for m := copy(large, small[:n]); m < len(large); {
			k, err := read(fd, large[m:])
			if err != nil {
				return 0, nil, err
			}
			if k == 0 {
				return 0, nil, io.ErrUnexpectedEOF
			}
			m += k
		}
	}
	now := syscall.NsecToTimespec(time.Now().UnixNano())
	times := [2]syscall.Timespec{now, now} // atime, mtime
	// LRU touch; best effort.
	_, _, _ = syscall.Syscall6(syscall.SYS_UTIMENSAT, uintptr(fd), 0, uintptr(unsafe.Pointer(&times)), 0, 0, 0)
	return n, large, nil
}

// openat opens the NUL-terminated path, retrying on EINTR.
func openat(path []byte, flags int) (int, error) {
	dirfd := atFDCWD
	for {
		fd, _, e := syscall.Syscall6(syscall.SYS_OPENAT, uintptr(dirfd), uintptr(unsafe.Pointer(&path[0])), uintptr(flags), 0, 0, 0)
		if e == 0 {
			return int(fd), nil
		}
		if e != syscall.EINTR {
			return -1, e
		}
	}
}

// read is one read(2), retried on EINTR.
func read(fd int, p []byte) (int, error) {
	for {
		n, err := syscall.Read(fd, p)
		if err != syscall.EINTR {
			return n, err
		}
	}
}
