// Package pager is the out-of-core substrate of the KWCP2 paged snapshot
// format (DESIGN.md §15): a page-granular view over an immutable on-disk
// file, served either zero-copy from a read-only memory mapping (the default
// on platforms that support it) or through pread into a bounded pin/unpin
// buffer pool with clock eviction. Pages are verified against their crc32c
// on first pin, and every pool is instrumented through internal/obs
// (hits/misses/evictions, resident-page gauge, pin-latency histogram).
//
// The package also owns the open-file registry that checkpoint pruning
// consults: a superseded snapshot file that a live mapping still pins is
// marked obsolete and deleted on the last unref instead of being unlinked
// under the reader (see Retire).
package pager

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// PageSize is the fixed page granularity of KWCP2 files. Sections start on
// page boundaries, so a page-aligned mapping keeps every section payload
// aligned for word-sized access.
const PageSize = 4096

// ErrChecksum reports a page whose content does not match its recorded
// crc32c — torn by a crash after the rename commit point (impossible with a
// sane filesystem, but disks lie) or damaged at rest.
var ErrChecksum = errString("pager: page checksum mismatch")

// ErrNoWindow reports that a file cannot be preallocated and mapped for
// writing (MapWindow): the platform has no mmap fast path, or the file
// system refuses fallocate or a shared mapping.
var ErrNoWindow = errString("pager: no writable mapping on this file system")

type errString string

func (e errString) Error() string { return string(e) }

// File is one open, immutable paged file. It is either memory-mapped (data
// non-nil; reads are zero-copy subslices) or plain-file backed (reads go
// through pread). Files are reference counted: Open/Ref take a reference,
// Unref drops one, and the file is unmapped and closed — and, if Retire
// marked it obsolete, deleted — when the count reaches zero.
type File struct {
	path string
	f    *os.File
	data []byte // non-nil iff mmap'd
	size int64

	mu       sync.Mutex
	refs     int
	obsolete bool
	closed   bool
}

// openOpts configures Open.
type openOpts struct {
	noMmap bool
}

// OpenOption configures Open.
type OpenOption func(*openOpts)

// WithoutMmap forces the pread path even where mmap is available — the
// bounded-memory serving mode (pages resident only while pooled) and the
// fallback exercised by tests on every platform.
func WithoutMmap() OpenOption { return func(o *openOpts) { o.noMmap = true } }

// registry tracks every open File by cleaned absolute path so that Retire
// can defer deletion of files still in use, and so a second Open of the same
// path shares the mapping instead of doubling it.
var (
	regMu    sync.Mutex
	registry = map[string]*File{}
)

// Open opens path for paged reads, taking one reference. If the same path is
// already open the existing File is shared (its reference count grows); the
// mapping/file descriptor is a process-wide singleton per path.
func Open(path string, opts ...OpenOption) (*File, error) {
	var o openOpts
	for _, op := range opts {
		op(&o)
	}
	key, err := filepath.Abs(filepath.Clean(path))
	if err != nil {
		return nil, err
	}
	regMu.Lock()
	defer regMu.Unlock()
	if f, ok := registry[key]; ok {
		f.mu.Lock()
		f.refs++
		f.mu.Unlock()
		return f, nil
	}
	osf, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := osf.Stat()
	if err != nil {
		osf.Close()
		return nil, err
	}
	pf := &File{path: key, f: osf, size: st.Size(), refs: 1}
	if !o.noMmap && pf.size > 0 {
		if data, err := mmapFile(osf, pf.size); err == nil {
			pf.data = data
		}
		// mmap failure is not an error: pread serves the same bytes.
	}
	registry[key] = pf
	pagerOpenFiles.Add(1)
	if pf.data != nil {
		pagerMappedBytes.Add(pf.size)
	}
	return pf, nil
}

// Ref takes an additional reference on an already-open file.
func (f *File) Ref() {
	f.mu.Lock()
	f.refs++
	f.mu.Unlock()
}

// Unref drops one reference. On the last unref the mapping is released, the
// descriptor closed, and — if the file was retired while open — the file is
// removed from disk.
func (f *File) Unref() error {
	regMu.Lock()
	f.mu.Lock()
	f.refs--
	last := f.refs <= 0 && !f.closed
	if last {
		f.closed = true
		if registry[f.path] == f {
			delete(registry, f.path)
		}
	}
	obsolete := f.obsolete
	f.mu.Unlock()
	regMu.Unlock()
	if !last {
		return nil
	}
	var err error
	if f.data != nil {
		err = munmapFile(f.data)
		pagerMappedBytes.Add(-f.size)
		f.data = nil
	}
	if cerr := f.f.Close(); err == nil {
		err = cerr
	}
	pagerOpenFiles.Add(-1)
	if obsolete {
		if rerr := os.Remove(f.path); rerr != nil && !os.IsNotExist(rerr) && err == nil {
			err = rerr
		}
		pagerRetiredDeleted.Inc()
	}
	return err
}

// Retire marks the file at path as superseded. If no open File holds it, the
// file is unlinked immediately; otherwise deletion is deferred to the last
// Unref and Retire reports deferred=true. Checkpoint pruning calls this
// instead of os.Remove so a snapshot a live mapping still pins is never
// deleted under the reader.
func Retire(path string) (deferred bool, err error) {
	key, err := filepath.Abs(filepath.Clean(path))
	if err != nil {
		return false, err
	}
	regMu.Lock()
	f, open := registry[key]
	if open {
		f.mu.Lock()
		f.obsolete = true
		f.mu.Unlock()
		pagerRetireDeferred.Inc()
	}
	regMu.Unlock()
	if open {
		return true, nil
	}
	if err := os.Remove(key); err != nil && !os.IsNotExist(err) {
		return false, err
	}
	return false, nil
}

// Path returns the cleaned absolute path of the file.
func (f *File) Path() string { return f.path }

// Size returns the file size in bytes.
func (f *File) Size() int64 { return f.size }

// Mapped reports whether reads are served from a memory mapping.
func (f *File) Mapped() bool { return f.data != nil }

// NumPages returns the page count (the last page may be partial).
func (f *File) NumPages() int64 { return (f.size + PageSize - 1) / PageSize }

// ReadAt implements io.ReaderAt over either backend.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off > f.size {
		return 0, fmt.Errorf("pager: read offset %d outside file of %d bytes", off, f.size)
	}
	if f.data != nil {
		n := copy(p, f.data[off:])
		if n < len(p) {
			return n, io.EOF
		}
		return n, nil
	}
	return f.f.ReadAt(p, off)
}

// Bytes returns the full mapping, or nil when the file is pread-backed. The
// returned slice is read-only: writing to it faults.
func (f *File) Bytes() []byte { return f.data }

// pageSpan returns the byte range of page p within the file.
func (f *File) pageSpan(page int64) (off, n int64, err error) {
	off = page * PageSize
	if page < 0 || off >= f.size {
		return 0, 0, fmt.Errorf("pager: page %d outside file of %d pages", page, f.NumPages())
	}
	n = PageSize
	if off+n > f.size {
		n = f.size - off
	}
	return off, n, nil
}
