package wal

import (
	"encoding/binary"
	"hash/crc32"
	"io"
)

// scanFrame parses the frame starting at data[off:]. It returns the payload
// (aliasing data) and the offset of the next frame. Errors:
//
//	io.EOF      — off is exactly the end of data (clean end of log)
//	errTorn     — the remaining bytes cannot hold the claimed frame: either
//	              a partial header or a body cut short (a torn write)
//	ErrCorrupt  — the header is complete but the length is implausible or
//	              the checksum does not match (bit rot / overwrite)
//
// Only frameReader calls it; see there for how each reader judges damage.
func scanFrame(data []byte, off int) (payload []byte, next int, err error) {
	rem := len(data) - off
	if rem == 0 {
		return nil, off, io.EOF
	}
	if rem < frameHeader {
		return nil, off, errTorn
	}
	length := int(binary.LittleEndian.Uint32(data[off:]))
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
// frame and decodes its record. Each reader judges where it stops:
//
//	recovery  damage with no valid frame after it, in the final segment, is
//	          a torn tail to truncate; any other damage is ErrCorrupt
//	shipper   damage ends the segment's shippable prefix
//	follower  a torn frame is re-requested; any other damage is ErrCorrupt
type frameReader struct {
	data   []byte
	off    int   // offset of the next unread frame
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
