package codec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/pager"
)

// The dataset file is a compatibility contract: this golden test pins the
// bytes of a two-object file, a version 1 KWCP2 container of five pages
// (superblock, page-CRC table and the three dataset sections), by their
// SHA-256, so accidental format changes fail loudly.
func TestGoldenFormatV1(t *testing.T) {
	ds := dataset.MustNew([]dataset.Object{
		{Point: geom.Point{1, 2}, Doc: []dataset.Keyword{3, 5}},
		{Point: geom.Point{-0.5, 4}, Doc: []dataset.Keyword{0}},
	})
	var buf bytes.Buffer
	if err := WriteDataset(&buf, ds); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 5*pager.PageSize {
		t.Fatalf("file of %d bytes, want 5 pages", buf.Len())
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenV1 {
		t.Fatalf("format drifted:\n got %s\nwant %s", got, goldenV1)
	}
	back, err := ReadDataset(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertEqualDatasets(t, ds, back)
}

const goldenV1 = "80acd7795ce2233129e03f227a4cb3989fb413ebd147927eb40d23e009597622"
