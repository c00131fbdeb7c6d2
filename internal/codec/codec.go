// Package codec holds the library's byte formats below the index: the KWCP2
// container — page-aligned, checksummed sections a file can be served from
// in place (paged.go) — with its fixed-width column codec, the section-id
// registry of the formats framed in it (sections.go), and the one of them it
// writes and reads itself, the dataset file (this file). internal/core owns
// the other two, the checkpoint and the flat image: it writes, opens and
// validates them.
package codec

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"kwsc/internal/dataset"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a checksum or framing failure.
var ErrCorrupt = errors.New("codec: corrupt data")

// WriteDataset writes the dataset to w as a KWCP2 container of kind
// PagedKindDataset: the three sections a flat image stores its rows in, here
// the points and the documents in the dataset's own columns.
func WriteDataset(w io.Writer, ds *dataset.Dataset) error {
	points, docStart, docWords := ds.Columns()
	meta := PagedMeta{Kind: PagedKindDataset, Dim: uint32(ds.Dim()), Count: uint64(ds.Len())}
	return WriteContainer(w, meta.Encode(), []Section{
		{ID: SecFlatPoints, Data: Put(points)},
		{ID: SecFlatDocStart, Data: Put(docStart)},
		{ID: SecFlatDocWords, Data: Put(docWords)},
	})
}

// ReadDataset reads a file written by WriteDataset from r, whole: it parses
// the container, verifies every page checksum and validates the columns
// (dataset.FromColumns), which the returned dataset keeps as views of the
// bytes read. A file that fails any of these is refused as ErrCorrupt.
func ReadDataset(r io.Reader) (*dataset.Dataset, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	f := memFile(b)
	c, err := ParseContainer(f, int64(len(b)))
	if err != nil {
		return nil, err
	}
	if err := c.VerifyAllPages(f); err != nil {
		return nil, err
	}
	meta := ParsePagedMeta(c.Meta)
	if meta.Kind != PagedKindDataset {
		return nil, fmt.Errorf("%w: container kind %d is not a dataset file", ErrCorrupt, meta.Kind)
	}
	points, err := Column[float64](c, f, SecFlatPoints)
	if err != nil {
		return nil, err
	}
	docStart, err := Column[int64](c, f, SecFlatDocStart)
	if err != nil {
		return nil, err
	}
	docWords, err := Column[dataset.Keyword](c, f, SecFlatDocWords)
	if err != nil {
		return nil, err
	}
	if uint64(len(docStart)) != meta.Count+1 {
		return nil, fmt.Errorf("%w: %d document offsets for %d objects", ErrCorrupt, len(docStart), meta.Count)
	}
	ds, err := dataset.FromColumns(int(meta.Dim), points, docStart, docWords)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return ds, nil
}

// memFile is a file read whole into memory, a source Column can cast.
type memFile []byte

func (m memFile) Bytes() []byte { return m }

func (m memFile) ReadAt(p []byte, off int64) (int, error) { return bytes.NewReader(m).ReadAt(p, off) }
