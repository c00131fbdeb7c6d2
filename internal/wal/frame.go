package wal

import (
	"encoding/binary"
	"hash/crc32"
	"io"
)

// scanFrame parses the frame starting at data[off:]. It returns the payload
// (aliasing data) and the offset of the next frame. Errors:
//
//	io.EOF      — nothing but zeros from off on, none at all included: the
//	              clean end of the log (a live or crashed segment ends in its
//	              preallocated window's zeros, and no frame starts with a
//	              zero length)
//	errTorn     — the remaining bytes cannot hold the claimed frame: either
//	              a partial header or a body cut short (a torn write)
//	ErrCorrupt  — the header is complete but the length is implausible or
//	              the checksum does not match (bit rot / overwrite, or a torn
//	              frame followed by zeros)
//
// Only frameReader calls it; see there for how each reader judges damage.
// The zero check runs only where no frame can start, so it reads each
// segment's zero tail once.
func scanFrame(data []byte, off int) (payload []byte, next int, err error) {
	rem := len(data) - off
	if rem < frameHeader {
		if isZero(data[off:]) {
			return nil, off, io.EOF
		}
		return nil, off, errTorn
	}
	length := int(binary.LittleEndian.Uint32(data[off:]))
	if length == 0 && isZero(data[off:]) {
		return nil, off, io.EOF
	}
	if length == 0 || length > maxFramePayload {
		return nil, off, ErrCorrupt
	}
	if rem < frameHeader+length {
		return nil, off, errTorn
	}
	want := binary.LittleEndian.Uint32(data[off+4:])
	payload = data[off+frameHeader : off+frameHeader+length]
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, off, ErrCorrupt
	}
	return payload, off + frameHeader + length, nil
}

// frameReader is the one walk over a log's bytes — a segment file at
// recovery or at the shipper, a shipped batch at a follower: it scans each
// frame and decodes its record. It stops at the logical end, where only
// zeros (or nothing) follow, with damage nil, in every segment and every
// batch alike. Each reader judges where it stops otherwise:
//
//	recovery  damage with no valid frame after it, in the final segment, is
//	          a torn tail to truncate; any other damage is ErrCorrupt
//	shipper   damage ends the segment's shippable prefix
//	follower  a torn frame is re-requested; any other damage is ErrCorrupt
type frameReader struct {
	data   []byte
	off    int   // offset of the next unread frame; the logical end at a clean end
	damage error // why the frame at off does not read; nil at a clean end
}

// next returns the record at off and its frame's bytes (aliasing data), and
// advances past the frame. At the end of data, or at a frame that does not
// scan (errTorn, ErrCorrupt) or decode (a wrapped ErrCorrupt), it returns
// false, leaving off at that frame and the reason in damage.
func (fr *frameReader) next() (r record, frame []byte, ok bool) {
	payload, next, err := scanFrame(fr.data, fr.off)
	if err == nil {
		r, err = decodeRecord(payload)
	}
	if err != nil {
		if err != io.EOF {
			fr.damage = err
		}
		return r, nil, false
	}
	frame = fr.data[fr.off:next]
	fr.off = next
	return r, frame, true
}

// isZero reports whether every byte of b is zero.
func isZero(b []byte) bool {
	for len(b) >= 8 {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
		b = b[8:]
	}
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// errTorn marks a frame cut short by a torn write; see scanFrame.
var errTorn = errorString("wal: torn frame")

type errorString string

func (e errorString) Error() string { return string(e) }

// anyValidFrameAfter reports whether any byte offset at or past `from`
// starts a checksum-valid frame. Recovery asks it at the frame where its
// frameReader stopped, to distinguish a torn tail (nothing valid follows the
// damage — safe to truncate) from mid-log corruption (valid frames follow —
// truncating would silently drop acknowledged operations, so recovery must
// refuse instead). A frame that does not scan is never valid at its own
// offset, while one that scans but does not decode is, so a record that
// cannot be decoded is never taken for a torn tail.
func anyValidFrameAfter(data []byte, from int) bool {
	for off := from; off+frameHeader <= len(data); off++ {
		length := int(binary.LittleEndian.Uint32(data[off:]))
		if length == 0 || length > maxFramePayload || off+frameHeader+length > len(data) {
			continue
		}
		body := data[off+frameHeader : off+frameHeader+length]
		if crc32.Checksum(body, castagnoli) == binary.LittleEndian.Uint32(data[off+4:]) {
			return true
		}
	}
	return false
}
