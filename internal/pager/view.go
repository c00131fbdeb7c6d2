package pager

import (
	"encoding/binary"
	"fmt"
)

// View is a typed random-access reader over one byte range of a pooled file
// (one KWCP2 section, usually). It keeps the most recently touched page
// pinned, so sequential and locally-clustered access patterns — binary
// searches, posting-block scans, per-object doc reads — pin each page once
// per run instead of once per word.
//
// Errors are sticky: a failed read (bad offset, checksum mismatch) zeroes
// the result, latches the error, and makes every later read a no-op; check
// Err at the points where the caller needs a verdict. A View is not safe for
// concurrent use; create one per goroutine (Views are cheap — one pin).
type View struct {
	p       *Pool
	off     int64 // absolute byte offset of the section
	n       int64 // section length in bytes
	cur     Frame
	curPage int64
	err     error
}

// NewView creates a view over the absolute byte range [off, off+n).
func NewView(p *Pool, off, n int64) (*View, error) {
	if off < 0 || n < 0 || off+n > p.f.size {
		return nil, fmt.Errorf("pager: view [%d,%d) outside file of %d bytes", off, off+n, p.f.size)
	}
	return &View{p: p, off: off, n: n, curPage: -1}, nil
}

// Len returns the section length in bytes.
func (v *View) Len() int64 { return v.n }

// Err returns the first error any read hit, or nil.
func (v *View) Err() error { return v.err }

// Release unpins the sticky frame. The view is reusable afterwards (the
// next read re-pins).
func (v *View) Release() {
	v.cur.Unpin()
	v.cur = Frame{}
	v.curPage = -1
}

// fail latches err and returns nil.
func (v *View) fail(err error) []byte {
	if v.err == nil {
		v.err = err
	}
	return nil
}

// page pins page pg (absolute page index), reusing the sticky frame.
func (v *View) page(pg int64) []byte {
	if pg == v.curPage {
		return v.cur.Data
	}
	fr, err := v.p.Pin(pg)
	if err != nil {
		return v.fail(err)
	}
	v.cur.Unpin()
	v.cur = fr
	v.curPage = pg
	return fr.Data
}

// bytes returns n bytes at section-relative offset rel when they lie within
// a single page, and nil (without an error) when they cross one: Span then
// falls back to Read.
func (v *View) bytes(rel, n int64) []byte {
	if v.err != nil {
		return nil
	}
	if rel < 0 || n < 0 || rel+n > v.n {
		return v.fail(fmt.Errorf("pager: read [%d,%d) outside section of %d bytes", rel, rel+n, v.n))
	}
	abs := v.off + rel
	pg := abs / PageSize
	po := abs - pg*PageSize
	if po+n > PageSize {
		return nil // page-crossing: caller falls back to Read
	}
	data := v.page(pg)
	if data == nil {
		return nil
	}
	if po+n > int64(len(data)) {
		return v.fail(fmt.Errorf("pager: read past end of partial page %d", pg))
	}
	return data[po : po+n]
}

// Read copies the section-relative range [rel, rel+len(dst)) into dst,
// crossing pages as needed.
func (v *View) Read(rel int64, dst []byte) {
	if v.err != nil {
		return
	}
	n := int64(len(dst))
	if rel < 0 || rel+n > v.n {
		v.fail(fmt.Errorf("pager: read [%d,%d) outside section of %d bytes", rel, rel+n, v.n))
		return
	}
	for n > 0 {
		abs := v.off + rel
		pg := abs / PageSize
		po := abs - pg*PageSize
		chunk := PageSize - po
		if chunk > n {
			chunk = n
		}
		data := v.page(pg)
		if data == nil {
			return
		}
		if po+chunk > int64(len(data)) {
			v.fail(fmt.Errorf("pager: read past end of partial page %d", pg))
			return
		}
		copy(dst[len(dst)-int(n):], data[po:po+chunk])
		rel += chunk
		n -= chunk
	}
}

// Span returns the section-relative range [rel, rel+n) as one slice: a
// subslice of the pinned page when the range lies within one page — valid
// until the view's next read or Release — and otherwise a copy assembled in
// scratch, which must hold n bytes. It is how a reader takes a whole record
// (a scalar, a point, a posting block's payload) with one bounds check and
// at most one pin per page. Returns nil once an error is latched.
func (v *View) Span(rel, n int64, scratch []byte) []byte {
	if b := v.bytes(rel, n); b != nil || v.err != nil {
		return b
	}
	v.Read(rel, scratch[:n])
	if v.err != nil {
		return nil
	}
	return scratch[:n]
}

// U32 reads the little-endian uint32 at byte offset rel.
func (v *View) U32(rel int64) uint32 {
	var buf [4]byte
	b := v.Span(rel, 4, buf[:])
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads the little-endian uint64 at byte offset rel.
func (v *View) U64(rel int64) uint64 {
	var buf [8]byte
	b := v.Span(rel, 8, buf[:])
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads the little-endian int64 at byte offset rel.
func (v *View) I64(rel int64) int64 { return int64(v.U64(rel)) }
