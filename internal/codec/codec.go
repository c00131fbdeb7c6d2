// Package codec holds the library's byte formats below the index: the
// dataset stream (this file), the KWCP2 container — page-aligned,
// checksummed sections a file can be served from in place (paged.go) — with
// its fixed-width column codec, and the section-id registry of the two
// formats framed in it (sections.go). internal/core owns those formats, the
// checkpoint and the flat image: it writes, opens and validates them.
//
// Dataset stream format (little-endian, varint-compressed):
//
//	magic "KWSC" | version u8 | dim uvarint | count uvarint
//	per object: per-dim float64 bits uvarint | doclen uvarint | keyword deltas uvarint...
//	crc32 (Castagnoli) of everything prior
//
// Keyword lists are sorted at dataset construction, so delta coding makes
// typical documents a few bytes each.
package codec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"

	"kwsc/internal/dataset"
)

const (
	magic   = "KWSC"
	version = 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a checksum or framing failure.
var ErrCorrupt = errors.New("codec: corrupt data")

// WriteDataset serializes the dataset to w.
func WriteDataset(w io.Writer, ds *dataset.Dataset) error {
	cw := &crcWriter{w: bufio.NewWriter(w), h: crc32.New(castagnoli)}
	if _, err := cw.Write([]byte(magic)); err != nil {
		return err
	}
	if err := cw.writeByte(version); err != nil {
		return err
	}
	cw.writeUvarint(uint64(ds.Dim()))
	cw.writeUvarint(uint64(ds.Len()))
	for i := 0; i < ds.Len(); i++ {
		id := int32(i)
		for _, c := range ds.Point(id) {
			cw.writeUvarint(math.Float64bits(c))
		}
		doc := ds.Doc(id)
		cw.writeUvarint(uint64(len(doc)))
		prev := uint64(0)
		for _, kw := range doc {
			cw.writeUvarint(uint64(kw) - prev)
			prev = uint64(kw)
		}
	}
	if cw.err != nil {
		return cw.err
	}
	sum := cw.h.Sum32()
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], sum)
	if _, err := cw.w.Write(buf[:]); err != nil {
		return err
	}
	return cw.w.Flush()
}

// ReadDataset deserializes a dataset from r, verifying the checksum.
func ReadDataset(r io.Reader) (*dataset.Dataset, error) {
	cr := &crcReader{r: bufio.NewReader(r), h: crc32.New(castagnoli)}
	head := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(cr, head); err != nil {
		return nil, fmt.Errorf("codec: reading header: %w", err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if head[len(magic)] != version {
		return nil, fmt.Errorf("codec: unsupported version %d", head[len(magic)])
	}
	dim, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, fmt.Errorf("%w: dim", ErrCorrupt)
	}
	count, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, fmt.Errorf("%w: count", ErrCorrupt)
	}
	if dim == 0 || dim > 64 {
		return nil, fmt.Errorf("%w: implausible dimension %d", ErrCorrupt, dim)
	}
	if count > 1<<31 {
		return nil, fmt.Errorf("%w: implausible object count %d", ErrCorrupt, count)
	}
	// Allocation is paced by the bytes actually read, never by the claimed
	// counts alone: a corrupt 12-byte stream may declare billions of objects,
	// but every object costs at least one byte per point coordinate and
	// document keyword, so growing incrementally (capped initial capacity)
	// bounds memory by the input size and fails with ErrCorrupt at the
	// truncation point instead of attempting a gigabyte make().
	objs := make([]dataset.Object, 0, capHint(count, 1))
	for i := uint64(0); i < count; i++ {
		p := make([]float64, dim)
		for j := range p {
			bits, err := binary.ReadUvarint(cr)
			if err != nil {
				return nil, fmt.Errorf("%w: point data", ErrCorrupt)
			}
			p[j] = math.Float64frombits(bits)
		}
		doc, err := readDoc(cr)
		if err != nil {
			return nil, err
		}
		objs = append(objs, dataset.Object{Point: p, Doc: doc})
	}
	want := cr.h.Sum32()
	var buf [4]byte
	if _, err := io.ReadFull(cr.r, buf[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(buf[:]) != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return dataset.New(objs)
}

// maxCapHint caps how many elements any claimed count pre-allocates before a
// single byte backing them has been read.
const maxCapHint = 4096

// capHint bounds the initial capacity for a length-prefixed sequence whose
// elements cost at least minBytes each: never more than maxCapHint elements
// up front, growth beyond that is paid for by successfully parsed input.
func capHint(claimed uint64, minBytes int) int {
	per := uint64(maxCapHint)
	if minBytes > 1 {
		per = uint64(maxCapHint / minBytes)
	}
	if claimed < per {
		return int(claimed)
	}
	return int(per)
}

// readDoc reads one length-prefixed, delta-coded keyword list.
func readDoc(cr *crcReader) ([]dataset.Keyword, error) {
	dl, err := binary.ReadUvarint(cr)
	if err != nil || dl == 0 || dl > 1<<24 {
		return nil, fmt.Errorf("%w: document length", ErrCorrupt)
	}
	doc := make([]dataset.Keyword, 0, capHint(dl, 1))
	prev := uint64(0)
	for j := uint64(0); j < dl; j++ {
		d, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, fmt.Errorf("%w: document data", ErrCorrupt)
		}
		prev += d
		if prev > math.MaxUint32 {
			return nil, fmt.Errorf("%w: keyword overflow", ErrCorrupt)
		}
		doc = append(doc, dataset.Keyword(prev))
	}
	return doc, nil
}

type crcWriter struct {
	w   *bufio.Writer
	h   hash.Hash32
	err error
	buf [binary.MaxVarintLen64]byte
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	cw.h.Write(p)
	n, err := cw.w.Write(p)
	cw.err = err
	return n, err
}

func (cw *crcWriter) writeByte(b byte) error {
	_, err := cw.Write([]byte{b})
	return err
}

func (cw *crcWriter) writeUvarint(v uint64) {
	n := binary.PutUvarint(cw.buf[:], v)
	cw.Write(cw.buf[:n])
}

type crcReader struct {
	r *bufio.Reader
	h hash.Hash32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.h.Write(p[:n])
	return n, err
}

// ReadByte lets binary.ReadUvarint consume one byte at a time while keeping
// the checksum in sync.
func (cr *crcReader) ReadByte() (byte, error) {
	b, err := cr.r.ReadByte()
	if err == nil {
		cr.h.Write([]byte{b})
	}
	return b, err
}
