package codec

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/pager"
	"kwsc/internal/workload"
)

func roundTrip(t *testing.T, ds *dataset.Dataset) *dataset.Dataset {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteDataset(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func assertEqualDatasets(t *testing.T, a, b *dataset.Dataset) {
	t.Helper()
	if a.Len() != b.Len() || a.Dim() != b.Dim() || a.N() != b.N() || a.W() != b.W() {
		t.Fatalf("shape mismatch: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			a.Len(), a.Dim(), a.N(), a.W(), b.Len(), b.Dim(), b.N(), b.W())
	}
	for i := 0; i < a.Len(); i++ {
		id := int32(i)
		if !a.Point(id).Equal(b.Point(id)) {
			t.Fatalf("object %d point mismatch", i)
		}
		da, db := a.Doc(id), b.Doc(id)
		if len(da) != len(db) {
			t.Fatalf("object %d doc length mismatch", i)
		}
		for j := range da {
			if da[j] != db[j] {
				t.Fatalf("object %d keyword %d mismatch", i, j)
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 1, Objects: 500, Dim: 3, Vocab: 100, DocLen: 5})
	assertEqualDatasets(t, ds, roundTrip(t, ds))
}

func TestRoundTripSpecialValues(t *testing.T) {
	ds := dataset.MustNew([]dataset.Object{
		{Point: geom.Point{0, -0.0}, Doc: []dataset.Keyword{0}},
		{Point: geom.Point{math.MaxFloat64, -math.MaxFloat64}, Doc: []dataset.Keyword{math.MaxUint32}},
		{Point: geom.Point{math.SmallestNonzeroFloat64, 1e-300}, Doc: []dataset.Keyword{1, 2, 3}},
	})
	assertEqualDatasets(t, ds, roundTrip(t, ds))
}

// Every page of a dataset file is checksummed, padding included: a bit
// flipped in any byte is refused.
func TestChecksumDetectsFlips(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 2, Objects: 100, Dim: 2, Vocab: 50, DocLen: 4})
	var buf bytes.Buffer
	if err := WriteDataset(&buf, ds); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	rng := rand.New(rand.NewSource(3))
	corrupted := slices.Clone(raw)
	for pos := range corrupted {
		bit := byte(1) << uint(rng.Intn(8))
		corrupted[pos] ^= bit
		if _, err := ReadDataset(bytes.NewReader(corrupted)); err == nil {
			t.Fatalf("bit flip at %d undetected", pos)
		}
		corrupted[pos] ^= bit
	}
}

// A file cut anywhere, at a page boundary too, is refused.
func TestTruncatedStream(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 4, Objects: 50, Dim: 2, Vocab: 20, DocLen: 3})
	var buf bytes.Buffer
	if err := WriteDataset(&buf, ds); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	cuts := []int{0, 3, 5, len(raw) / 2, len(raw) - 1}
	for cut := pager.PageSize; cut < len(raw); cut += pager.PageSize {
		cuts = append(cuts, cut)
	}
	for _, cut := range cuts {
		if _, err := ReadDataset(bytes.NewReader(raw[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

// A file that is not a dataset container is refused: another magic, another
// container version, another kind of container.
func TestBadMagicAndVersion(t *testing.T) {
	if _, err := ReadDataset(bytes.NewReader([]byte("NOPE\x01"))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err = %v", err)
	}
	ds := workload.Gen(workload.Config{Seed: 5, Objects: 10, Dim: 2, Vocab: 10, DocLen: 3})
	var buf bytes.Buffer
	if err := WriteDataset(&buf, ds); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	magic := slices.Clone(raw)
	copy(magic, "KWSC")
	if _, err := ReadDataset(bytes.NewReader(magic)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err = %v", err)
	}
	raw[4] = 99 // version byte
	if _, err := ReadDataset(bytes.NewReader(raw)); err == nil {
		t.Fatal("future version accepted")
	}
	var other bytes.Buffer
	meta := PagedMeta{Kind: PagedKindFlatORPKW, Dim: 2, Count: 1}
	if err := WriteContainer(&other, meta.Encode(), []Section{
		{ID: SecFlatPoints, Data: Put([]float64{1, 2})},
		{ID: SecFlatDocStart, Data: Put([]int64{0, 1})},
		{ID: SecFlatDocWords, Data: Put([]dataset.Keyword{7})},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDataset(&other); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flat image kind read as a dataset: err = %v", err)
	}
}

// Property: arbitrary valid datasets survive the round trip.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func() bool {
		n := 1 + rng.Intn(100)
		dim := 1 + rng.Intn(4)
		objs := make([]dataset.Object, n)
		for i := range objs {
			p := make(geom.Point, dim)
			for j := range p {
				p[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
			}
			doc := make([]dataset.Keyword, 1+rng.Intn(6))
			for j := range doc {
				doc[j] = dataset.Keyword(rng.Intn(1 << uint(1+rng.Intn(20))))
			}
			objs[i] = dataset.Object{Point: p, Doc: doc}
		}
		ds := dataset.MustNew(objs)
		var buf bytes.Buffer
		if err := WriteDataset(&buf, ds); err != nil {
			return false
		}
		got, err := ReadDataset(&buf)
		if err != nil {
			return false
		}
		if got.Len() != ds.Len() || got.N() != ds.N() {
			return false
		}
		for i := 0; i < ds.Len(); i++ {
			if !got.Point(int32(i)).Equal(ds.Point(int32(i))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// A persisted dataset rebuilds a working index.
func TestPersistedDatasetIndexes(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 7, Objects: 300, Dim: 2, Vocab: 30, DocLen: 4})
	restored := roundTrip(t, ds)
	q := geom.NewRect([]float64{0.2, 0.2}, []float64{0.8, 0.8})
	a := ds.Filter(q, []dataset.Keyword{0, 1})
	b := restored.Filter(q, []dataset.Keyword{0, 1})
	if len(a) != len(b) {
		t.Fatalf("restored dataset answers differently: %d vs %d", len(a), len(b))
	}
}
