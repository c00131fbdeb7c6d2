package pager

import "unsafe"

// Zero-copy typed views over mapped section bytes. KWCP2 sections are
// little-endian and page-aligned, so on a little-endian host a mapped
// section IS the typed slice — no decode, no copy. Big-endian hosts (and
// misaligned inputs, which a well-formed container never produces) get nil
// and fall back to a decode (codec.Get).

// Word is the element type of a KWCP2 column: a fixed-width value stored
// little-endian.
type Word interface {
	~int32 | ~uint32 | ~int64 | ~uint64 | ~float64
}

// hostLE reports whether the host is little-endian, decided once at init.
var hostLE = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// CanCast reports whether zero-copy casts are available on this host: whether
// a column's memory is its little-endian byte image.
func CanCast() bool { return hostLE }

// Cast views b as []T. Returns nil unless the host is little-endian and b is
// non-empty and aligned to T's size.
func Cast[T Word](b []byte) []T {
	size := unsafe.Sizeof(*new(T))
	if !hostLE || len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))%size != 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), uintptr(len(b))/size)
}

// AsBytes views v's memory as bytes (nil for an empty v): the inverse of
// Cast, host byte order.
func AsBytes[T Word](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), uintptr(len(v))*unsafe.Sizeof(v[0]))
}
