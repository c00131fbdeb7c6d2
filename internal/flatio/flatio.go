// Package flatio persists built static indexes (ORPKW, SPKW) as flat-index
// KWCP2 containers and reopens them without rebuilding. A saved file holds
// the dataset image (points, documents), the framework's column
// arenas (internal/core's FlatArenas), and — for ORPKW — the rank tables, so
// an open is: map the file, verify page checksums, validate structure, and
// serve. On a little-endian host with the file mapped, the big columns
// (coordinates, posting payloads, tensors) alias the mapping directly and
// the page cache is the only copy; otherwise the columns are decoded into
// RAM through the pager.
//
// Only rectangle splitters round-trip (spart.KD, spart.Box): Willard2D's
// polygon cells have no fixed-width serialized form, so SPKW indexes built
// over the default d=2 substrate must be built with an explicit Box splitter
// to be saveable (SaveSPKW reports this as an error, not a panic).
package flatio

import (
	"fmt"
	"os"

	"kwsc/internal/codec"
	"kwsc/internal/pager"
)

// Options tunes how a saved index is opened.
type Options struct {
	// NoMmap forces pread-backed access: every column is decoded into RAM
	// at open and the mapping is never created. The default maps the file
	// and aliases columns zero-copy where alignment and endianness allow.
	NoMmap bool
}

// Handle owns the open file's pager reference. The index returned alongside
// it may alias the mapping, so the handle must stay open for the index's
// lifetime and be closed exactly once when the index is discarded.
type Handle struct {
	f *pager.File
}

// Close releases the file reference (unmapping on the last reference, and
// completing a deferred pager.Retire if one is pending).
func (h *Handle) Close() error {
	if h == nil || h.f == nil {
		return nil
	}
	f := h.f
	h.f = nil
	return f.Unref()
}

// Path returns the file the handle serves from.
func (h *Handle) Path() string { return h.f.Path() }

// Mapped reports whether the file is memory-mapped.
func (h *Handle) Mapped() bool { return h.f.Mapped() }

// writeAtomic writes a container to path via tmp-file + rename + directory
// sync, so a crash mid-save never leaves a torn file under the final name.
func writeAtomic(path string, encode func(f *os.File) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := encode(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncParentDir(path)
}

func syncParentDir(path string) error {
	dir := "."
	if i := lastSlash(path); i >= 0 {
		dir = path[:i]
		if dir == "" {
			dir = "/"
		}
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' || s[i] == os.PathSeparator {
			return i
		}
	}
	return -1
}

// openContainer opens path through the pager, parses the superblock, and
// verifies every page checksum. On success the caller owns the returned
// file reference.
func openContainer(path string, o Options) (*pager.File, *codec.Container, error) {
	var popts []pager.OpenOption
	if o.NoMmap {
		popts = append(popts, pager.WithoutMmap())
	}
	f, err := pager.Open(path, popts...)
	if err != nil {
		return nil, nil, err
	}
	c, err := codec.ParseContainer(f, f.Size())
	if err != nil {
		f.Unref()
		return nil, nil, err
	}
	if err := c.VerifyAllPages(f); err != nil {
		f.Unref()
		return nil, nil, err
	}
	adviseSkeleton(f, c)
	return f, c, nil
}

// secReader hands out section payloads, zero-copy when the file is mapped
// on a little-endian host and copied/decoded otherwise. All page checksums
// were verified by openContainer, so aliasing the mapping is safe.
type secReader struct {
	c      *codec.Container
	f      *pager.File
	mapped []byte // non-nil iff zero-copy aliasing is allowed
}

func newSecReader(c *codec.Container, f *pager.File) *secReader {
	s := &secReader{c: c, f: f}
	if f.Mapped() && pager.CanCast() {
		s.mapped = f.Bytes()
	}
	return s
}

// bytes returns section id's payload (nil for an absent or empty section)
// and whether the returned slice aliases the mapping.
func (s *secReader) bytes(id uint32) ([]byte, bool, error) {
	_, n, ok := s.c.Section(id)
	if !ok || n == 0 {
		return nil, false, nil
	}
	if s.mapped != nil {
		off, _, _ := s.c.Section(id)
		return s.mapped[off : off+n], true, nil
	}
	b, err := s.c.SectionBytes(s.f, id)
	return b, false, err
}

func (s *secReader) f64s(id uint32, what string) ([]float64, error) {
	b, aliased, err := s.bytes(id)
	if err != nil || b == nil {
		return nil, err
	}
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: %s section not a whole number of float64s", codec.ErrCorrupt, what)
	}
	if aliased {
		if v := pager.CastF64(b); v != nil {
			return v, nil
		}
	}
	return codec.GetF64s(b), nil
}

func (s *secReader) i64s(id uint32, what string) ([]int64, error) {
	b, aliased, err := s.bytes(id)
	if err != nil || b == nil {
		return nil, err
	}
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: %s section not a whole number of int64s", codec.ErrCorrupt, what)
	}
	if aliased {
		if v := pager.CastI64(b); v != nil {
			return v, nil
		}
	}
	return codec.GetI64s(b), nil
}

func (s *secReader) u64s(id uint32, what string) ([]uint64, error) {
	b, aliased, err := s.bytes(id)
	if err != nil || b == nil {
		return nil, err
	}
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: %s section not a whole number of uint64s", codec.ErrCorrupt, what)
	}
	if aliased {
		if v := pager.CastU64(b); v != nil {
			return v, nil
		}
	}
	return codec.GetU64s(b), nil
}

func (s *secReader) i32s(id uint32, what string) ([]int32, error) {
	b, aliased, err := s.bytes(id)
	if err != nil || b == nil {
		return nil, err
	}
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("%w: %s section not a whole number of int32s", codec.ErrCorrupt, what)
	}
	if aliased {
		if v := pager.CastI32(b); v != nil {
			return v, nil
		}
	}
	return codec.GetI32s(b), nil
}

func (s *secReader) u32s(id uint32, what string) ([]uint32, error) {
	b, aliased, err := s.bytes(id)
	if err != nil || b == nil {
		return nil, err
	}
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("%w: %s section not a whole number of uint32s", codec.ErrCorrupt, what)
	}
	if aliased {
		if v := pager.CastU32(b); v != nil {
			return v, nil
		}
	}
	return codec.GetU32s(b), nil
}
