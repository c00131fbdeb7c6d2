//go:build linux

package pager

import (
	"fmt"
	"os"
	"syscall"
)

// mmapFile maps the file read-only and shared; the kernel's page cache backs
// the mapping, so resident set grows only with touched pages and shrinks
// under memory pressure — the property that lets a shard serve an index
// larger than RAM.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmapFile(data []byte) error {
	return syscall.Munmap(data)
}

// MapWindow preallocates the byte range [off, off+size) of f, which must be
// open for reading and writing, growing the file to cover it, and maps the
// range writable and shared. A store into the window is in the page cache —
// where a completed write(2) of the same bytes would be — as soon as it
// completes, and the file's fsync writes it back. Preallocation is what
// keeps a store from faulting for want of a disk block; a window whose file
// another process truncates faults anyway (SIGBUS). off must be a multiple
// of os.Getpagesize(). An error wrapping ErrNoWindow means the file system
// cannot preallocate or map the file at all.
func MapWindow(f *os.File, off, size int64) ([]byte, error) {
	fd := int(f.Fd())
	if err := syscall.Fallocate(fd, 0, off, size); err != nil {
		if err == syscall.EOPNOTSUPP || err == syscall.ENOSYS {
			return nil, fmt.Errorf("%w: fallocate: %v", ErrNoWindow, err)
		}
		return nil, &os.PathError{Op: "fallocate", Path: f.Name(), Err: err}
	}
	b, err := syscall.Mmap(fd, off, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err == syscall.ENODEV {
		return nil, fmt.Errorf("%w: mmap: %v", ErrNoWindow, err)
	}
	if err != nil {
		return nil, &os.PathError{Op: "mmap", Path: f.Name(), Err: err}
	}
	return b, nil
}

// UnmapWindow releases a window MapWindow returned; nil is a no-op. Stores
// already made stay in the page cache, for the file's fsync to write back.
func UnmapWindow(b []byte) error {
	if b == nil {
		return nil
	}
	return syscall.Munmap(b)
}
