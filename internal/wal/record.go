package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"kwsc/internal/core"
	"kwsc/internal/dataset"
)

// Op record payloads. Every mutation of the durable index becomes exactly
// one record; records carry a strictly increasing sequence number, from 1,
// so a checkpoint can supersede a log prefix and recovery can detect gaps.
//
//	seq uvarint | op u8 | handle uvarint
//	opInsert only: dim uvarint | per-dim float64 bits uvarint
//	               doclen uvarint | keyword deltas uvarint...
const (
	opInsert byte = 1
	opDelete byte = 2
)

type record struct {
	seq    uint64
	op     byte
	handle int64
	obj    dataset.Object // opInsert only
}

// appendRecord encodes r onto dst. Documents are sorted and de-duplicated by
// the dynamic index before they reach the journal, so delta coding applies.
func appendRecord(dst []byte, r *record) []byte {
	dst = binary.AppendUvarint(dst, r.seq)
	dst = append(dst, r.op)
	dst = binary.AppendUvarint(dst, uint64(r.handle))
	if r.op == opInsert {
		dst = binary.AppendUvarint(dst, uint64(len(r.obj.Point)))
		for _, c := range r.obj.Point {
			dst = binary.AppendUvarint(dst, math.Float64bits(c))
		}
		dst = binary.AppendUvarint(dst, uint64(len(r.obj.Doc)))
		prev := uint64(0)
		for _, kw := range r.obj.Doc {
			dst = binary.AppendUvarint(dst, uint64(kw)-prev)
			prev = uint64(kw)
		}
	}
	return dst
}

// decodeRecord parses one frame payload. It is total over arbitrary bytes:
// claimed counts never allocate more than the payload can back, and any
// structural violation returns ErrCorrupt.
func decodeRecord(payload []byte) (record, error) {
	var r record
	d := recDecoder{buf: payload}
	r.seq = d.uvarint()
	r.op = d.byte()
	h := d.uvarint()
	if d.err || r.seq == 0 || h > math.MaxInt64 {
		return r, fmt.Errorf("%w: record header", ErrCorrupt)
	}
	r.handle = int64(h)
	switch r.op {
	case opDelete:
		// No body.
	case opInsert:
		dim := d.uvarint()
		if d.err || dim == 0 || dim > 64 {
			return r, fmt.Errorf("%w: record dimension", ErrCorrupt)
		}
		p := make([]float64, dim)
		for j := range p {
			p[j] = math.Float64frombits(d.uvarint())
		}
		dl := d.uvarint()
		// Each keyword delta costs at least one byte, so a valid doclen
		// never exceeds the bytes remaining in the payload.
		if d.err || dl == 0 || dl > uint64(len(payload)) {
			return r, fmt.Errorf("%w: record document length", ErrCorrupt)
		}
		doc := make([]dataset.Keyword, 0, dl)
		prev := uint64(0)
		for j := uint64(0); j < dl; j++ {
			delta := d.uvarint()
			if j > 0 && delta == 0 {
				return r, fmt.Errorf("%w: record document not strictly increasing", ErrCorrupt)
			}
			prev += delta
			if prev > math.MaxUint32 {
				return r, fmt.Errorf("%w: record keyword overflow", ErrCorrupt)
			}
			doc = append(doc, dataset.Keyword(prev))
		}
		if d.err {
			return r, fmt.Errorf("%w: record body", ErrCorrupt)
		}
		r.obj = dataset.Object{Point: p, Doc: doc}
	default:
		return r, fmt.Errorf("%w: unknown record op %d", ErrCorrupt, r.op)
	}
	if d.err || len(d.buf) != d.off {
		return r, fmt.Errorf("%w: trailing record bytes", ErrCorrupt)
	}
	return r, nil
}

// recDecoder is a tiny cursor over a record payload with sticky errors.
type recDecoder struct {
	buf []byte
	off int
	err bool
}

func (d *recDecoder) uvarint() uint64 {
	if d.err {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = true
		return 0
	}
	d.off += n
	return v
}

func (d *recDecoder) byte() byte {
	if d.err || d.off >= len(d.buf) {
		d.err = true
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// apply replays r onto idx by the one rule every log reader shares: r must
// be the record after idx.Seq(), an insert must reproduce the logged handle,
// and a delete must hit a live handle. A record that breaks the rule is
// refused before it is applied, with an error wrapping verdict — ErrCorrupt
// at recovery, ErrDiverged at a follower. With a journal attached to idx
// (a follower's Durable) the applied record is logged like any other
// mutation. FPReplay fires before each record that passes the sequence
// check.
func apply(idx *core.DynamicORPKW, r *record, verdict error) error {
	if want := idx.Seq() + 1; r.seq != want {
		return fmt.Errorf("%w: sequence gap: record %d where %d was expected", verdict, r.seq, want)
	}
	core.Failpoint(FPReplay)
	switch r.op {
	case opInsert:
		if h := idx.NextHandle(); h != r.handle {
			return fmt.Errorf("%w: replayed insert seq %d would produce handle %d, logged %d",
				verdict, r.seq, h, r.handle)
		}
		if _, err := idx.Insert(r.obj); err != nil {
			return fmt.Errorf("wal: replaying insert seq %d: %w", r.seq, err)
		}
	case opDelete:
		ok, err := idx.Delete(r.handle)
		if err != nil {
			return fmt.Errorf("wal: replaying delete seq %d: %w", r.seq, err)
		}
		if !ok {
			return fmt.Errorf("%w: replayed delete seq %d of dead handle %d", verdict, r.seq, r.handle)
		}
	}
	return nil
}
