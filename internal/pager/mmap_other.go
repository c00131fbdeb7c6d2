//go:build !linux

package pager

import "os"

// Platforms without the mmap fast path fall back to pread transparently:
// Open treats a map failure as "not mapped" and every read goes through the
// pool.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	return nil, errString("pager: mmap unsupported on this platform")
}

func munmapFile(data []byte) error { return nil }

// MapWindow always reports ErrNoWindow here: writers fall back to write(2).
func MapWindow(f *os.File, off, size int64) ([]byte, error) { return nil, ErrNoWindow }

// UnmapWindow is a no-op: MapWindow maps nothing here.
func UnmapWindow(b []byte) error { return nil }
