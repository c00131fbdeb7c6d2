package dataset

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"kwsc/internal/geom"
)

// The vocabulary bound is computed in int: the largest keyword the wire
// accepts does not wrap it to 0, and both ends of the keyword range are found.
func TestWDoesNotWrapAtMaxKeyword(t *testing.T) {
	const top = math.MaxUint32
	ds := MustNew([]Object{{Point: geom.Point{1}, Doc: []Keyword{top}}})
	if uint64(ds.W()) != 1<<32 {
		t.Fatalf("W = %d, want 1<<32", ds.W())
	}
	ds = MustNew([]Object{
		{Point: geom.Point{1}, Doc: []Keyword{top, 0}},
		{Point: geom.Point{2}, Doc: []Keyword{7}},
	})
	if uint64(ds.W()) != 1<<32 {
		t.Fatalf("W = %d, want 1<<32", ds.W())
	}
	if !ds.Has(0, top) || !ds.Has(0, 0) || ds.Has(1, top) || ds.Has(1, 0) {
		t.Fatal("Has wrong at the ends of the keyword range")
	}
	if !ds.HasAll(0, []Keyword{top, 0}) || ds.HasAll(1, []Keyword{7, top}) {
		t.Fatal("HasAll wrong at the ends of the keyword range")
	}
	all := geom.NewRect([]float64{0}, []float64{3})
	if got := ds.Filter(all, []Keyword{0, top}); !slices.Equal(got, []int32{0}) {
		t.Fatalf("Filter = %v, want [0]", got)
	}
	points, docStart, docWords := ds.Columns()
	fc, err := FromColumns(1, points, docStart, docWords)
	if err != nil || uint64(fc.W()) != 1<<32 {
		t.Fatalf("FromColumns: W = %d, err %v", fc.W(), err)
	}
}

// New copies: the caller's objects stay byte-for-byte as passed while the
// dataset's documents are canonical.
func TestNewLeavesInputUntouched(t *testing.T) {
	objs := []Object{
		{Point: geom.Point{1, 2}, Doc: []Keyword{9, 3, 9, 1, 3}},
		{Point: geom.Point{4, 5}, Doc: []Keyword{2, 2}},
	}
	saved := make([]Object, len(objs))
	for i, o := range objs {
		saved[i] = Object{Point: slices.Clone(o.Point), Doc: slices.Clone(o.Doc)}
	}
	ds := MustNew(objs)
	for i := range objs {
		if !slices.Equal(objs[i].Doc, saved[i].Doc) || !slices.Equal(objs[i].Point, saved[i].Point) {
			t.Fatalf("New wrote to object %d: %v", i, objs[i])
		}
	}
	if !slices.Equal(ds.Doc(0), []Keyword{1, 3, 9}) || !slices.Equal(ds.Doc(1), []Keyword{2}) {
		t.Fatalf("documents not canonical: %v %v", ds.Doc(0), ds.Doc(1))
	}
	if ds.N() != 4 || ds.DocLen(0) != 3 {
		t.Fatalf("N = %d, DocLen(0) = %d", ds.N(), ds.DocLen(0))
	}
	objs[0].Point[0], objs[0].Doc[0] = 77, 77
	if ds.Point(0)[0] != 1 || ds.Has(0, 77) {
		t.Fatal("the dataset aliases New's input")
	}
}

// Views are capacity-clipped: appending through one cannot reach the next
// object's coordinates or keywords.
func TestViewsAreClipped(t *testing.T) {
	ds := small()
	for i := int32(0); int(i) < ds.Len()-1; i++ {
		wantP, wantD := slices.Clone(ds.Point(i+1)), slices.Clone(ds.Doc(i+1))
		_ = append(ds.Doc(i), 999)
		_ = append(ds.Point(i), -1)
		o := ds.Object(i)
		_ = append(o.Doc, 998)
		_ = append(o.Point, -2)
		if !slices.Equal(ds.Point(i+1), wantP) || !slices.Equal(ds.Doc(i+1), wantD) {
			t.Fatalf("append through object %d reached object %d", i, i+1)
		}
	}
}

// FromColumns aliases its input and never writes to it.
func TestFromColumnsAliasesWithoutWriting(t *testing.T) {
	points := []float64{1, 2, 4, 5, 0, 0}
	docStart := []int64{0, 2, 3, 6}
	docWords := []Keyword{1, 3, 2, 1, 2, 5}
	sp, ss, sw := slices.Clone(points), slices.Clone(docStart), slices.Clone(docWords)
	ds, err := FromColumns(2, points, docStart, docWords)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 3 || ds.N() != 6 || ds.W() != 6 || ds.Dim() != 2 {
		t.Fatalf("Len %d N %d W %d Dim %d", ds.Len(), ds.N(), ds.W(), ds.Dim())
	}
	ds.HasAll(2, []Keyword{1, 5})
	ds.Filter(geom.NewRect([]float64{0, 0}, []float64{9, 9}), []Keyword{1})
	if !slices.Equal(points, sp) || !slices.Equal(docStart, ss) || !slices.Equal(docWords, sw) {
		t.Fatal("FromColumns wrote to its input")
	}
	if &ds.Point(1)[0] != &points[2] || &ds.Doc(2)[0] != &docWords[3] {
		t.Fatal("FromColumns copied its input")
	}
	gp, gs, gw := ds.Columns()
	if &gp[0] != &points[0] || &gs[0] != &docStart[0] || &gw[0] != &docWords[0] {
		t.Fatal("Columns does not return the wrapped slices")
	}
}

// hostileColumns is the table of non-canonical column edits FromColumns must
// refuse; core's TestOpenRefusesHostileDatasetColumns feeds the same edits
// through a saved image.
var hostileColumns = []struct {
	name string
	edit func(p []float64, s []int64, w []Keyword) ([]float64, []int64, []Keyword)
}{
	{"points one coordinate short", func(p []float64, s []int64, w []Keyword) ([]float64, []int64, []Keyword) {
		return p[:len(p)-1], s, w
	}},
	{"points one coordinate long", func(p []float64, s []int64, w []Keyword) ([]float64, []int64, []Keyword) {
		return append(p, 0), s, w
	}},
	{"docStart[0] != 0", func(p []float64, s []int64, w []Keyword) ([]float64, []int64, []Keyword) {
		s[0] = 1
		return p, s, w
	}},
	{"docStart decreasing pair", func(p []float64, s []int64, w []Keyword) ([]float64, []int64, []Keyword) {
		s[1], s[2] = s[2], s[1]
		return p, s, w
	}},
	{"empty document", func(p []float64, s []int64, w []Keyword) ([]float64, []int64, []Keyword) {
		s[2] = s[1]
		return p, s, w
	}},
	{"last offset != len(docWords)", func(p []float64, s []int64, w []Keyword) ([]float64, []int64, []Keyword) {
		s[len(s)-1]++
		return p, s, w
	}},
	{"offset past the end mid-column", func(p []float64, s []int64, w []Keyword) ([]float64, []int64, []Keyword) {
		s[1] = int64(len(w)) + 5
		return p, s, w
	}},
	{"docStart one entry short", func(p []float64, s []int64, w []Keyword) ([]float64, []int64, []Keyword) {
		return p, s[:len(s)-1], w
	}},
	{"docWords descending pair", func(p []float64, s []int64, w []Keyword) ([]float64, []int64, []Keyword) {
		w[s[1]], w[s[1]+1] = w[s[1]+1], w[s[1]]
		return p, s, w
	}},
	{"docWords duplicate in one document", func(p []float64, s []int64, w []Keyword) ([]float64, []int64, []Keyword) {
		w[s[1]+1] = w[s[1]]
		return p, s, w
	}},
}

func TestFromColumnsRefusesHostileColumns(t *testing.T) {
	// Every document has at least two words, so each edit has a pair to break.
	p0 := []float64{1, 2, 4, 5, 0, 0, 7, 7}
	s0 := []int64{0, 2, 5, 7, 9}
	w0 := []Keyword{1, 3, 4, 5, 6, 1, 5, 0, 9} // 0..5 increasing: the decreasing pair is caught as offsets
	if _, err := FromColumns(2, p0, s0, w0); err != nil {
		t.Fatalf("clean columns refused: %v", err)
	}
	for _, tc := range hostileColumns {
		p, s, w := tc.edit(slices.Clone(p0), slices.Clone(s0), slices.Clone(w0))
		if ds, err := FromColumns(2, p, s, w); err == nil {
			t.Errorf("%s: accepted (%d objects)", tc.name, ds.Len())
		}
	}
	for _, dim := range []int{0, -1, 3} {
		if _, err := FromColumns(dim, p0, s0, w0); err == nil {
			t.Errorf("dim %d accepted", dim)
		}
	}
	if _, err := FromColumns(2, nil, nil, nil); err != ErrEmpty {
		t.Errorf("no columns: err %v, want ErrEmpty", err)
	}
	if _, err := FromColumns(2, nil, []int64{0}, nil); err != ErrEmpty {
		t.Errorf("no objects: err %v, want ErrEmpty", err)
	}
}

// Property: Has and HasAll agree with a map for document lengths either side
// of scanMax, probing present words, absent words below the first, between
// two and above the last, and both ends of the keyword range. The inputs
// include the runs of sequential even keys and the zero key that used to
// stress the hash set's probe chain.
func TestMembershipAgainstMapProperty(t *testing.T) {
	if scanMax < 2 || scanMax >= 63 {
		t.Fatalf("scanMax = %d: lengths 1..64 no longer straddle it", scanMax)
	}
	rng := rand.New(rand.NewSource(41))
	var objs []Object
	for length := 1; length <= 64; length++ {
		seq := make([]Keyword, length) // 0, 2, 4, ...: sequential, with the zero key
		for j := range seq {
			seq[j] = Keyword(2 * j)
		}
		ends := make([]Keyword, length) // includes 0 and MaxUint32 when it can
		for j := range ends {
			ends[j] = Keyword(rng.Uint32())
		}
		ends[0] = math.MaxUint32
		if length > 1 {
			ends[1] = 0
		}
		sparse := make([]Keyword, length) // gaps on every side, neither end
		for j := range sparse {
			sparse[j] = 10 + Keyword(rng.Intn(1<<20))*3
		}
		for _, doc := range [][]Keyword{seq, ends, sparse} {
			objs = append(objs, Object{Point: geom.Point{0}, Doc: doc})
		}
	}
	ds := MustNew(objs)
	for i := range objs {
		id := int32(i)
		ref := make(map[Keyword]bool)
		for _, w := range objs[i].Doc {
			ref[w] = true
		}
		doc := ds.Doc(id)
		if len(doc) != len(ref) {
			t.Fatalf("object %d: %d words, want %d", i, len(doc), len(ref))
		}
		probes := []Keyword{0, 1, math.MaxUint32, math.MaxUint32 - 1, doc[0] - 1, doc[len(doc)-1] + 1}
		for j, w := range doc {
			probes = append(probes, w, w+1, w-1)
			if j > 0 {
				probes = append(probes, doc[j-1]+(w-doc[j-1])/2)
			}
		}
		for _, w := range probes {
			if ds.Has(id, w) != ref[w] {
				t.Fatalf("object %d (len %d): Has(%d) = %v, want %v", i, len(doc), w, !ref[w], ref[w])
			}
		}
		for trial := 0; trial < 20; trial++ {
			ws := []Keyword{probes[rng.Intn(len(probes))], doc[rng.Intn(len(doc))], probes[rng.Intn(len(probes))]}
			want := ref[ws[0]] && ref[ws[1]] && ref[ws[2]]
			if ds.HasAll(id, ws) != want {
				t.Fatalf("object %d: HasAll(%v) = %v, want %v", i, ws, !want, want)
			}
		}
		if !ds.HasAll(id, doc) {
			t.Fatalf("object %d: HasAll(own document) false", i)
		}
	}
}

func genObjects(n int) []Object {
	rng := rand.New(rand.NewSource(int64(n)))
	objs := make([]Object, n)
	for i := range objs {
		doc := make([]Keyword, 1+rng.Intn(11))
		for j := range doc {
			doc[j] = Keyword(rng.Intn(1000))
		}
		objs[i] = Object{Point: geom.Point{rng.Float64(), rng.Float64()}, Doc: doc}
	}
	return objs
}

// No per-object heap: New allocates its three columns and the header however
// many objects it is given, FromColumns only the header, HasAll nothing.
func TestConstructorsAllocateColumnsOnly(t *testing.T) {
	var ds *Dataset
	for _, n := range []int{10, 10000} {
		objs := genObjects(n)
		runtime.GC() // the collector's own first-cycle allocations are not New's
		if got := testing.AllocsPerRun(20, func() { ds = MustNew(objs) }); got > 4 {
			t.Errorf("New(%d objects): %v allocations, want <= 4", n, got)
		}
	}
	points, docStart, docWords := ds.Columns()
	if got := testing.AllocsPerRun(5, func() { ds, _ = FromColumns(2, points, docStart, docWords) }); got > 1 {
		t.Errorf("FromColumns: %v allocations, want <= 1", got)
	}
	ws := []Keyword{ds.Doc(7)[0], 5}
	var hit bool
	if got := testing.AllocsPerRun(100, func() { hit = ds.HasAll(7, ws) || hit }); got != 0 {
		t.Errorf("HasAll: %v allocations, want 0", got)
	}
}

// BenchmarkHasAll is the loop scanMax was chosen on: k=2 probes of random
// ids, one keyword present and one random. hot fits in cache; cold/short is
// 1 Mi objects of DocLen-6 documents (the benchmark corpora's shape);
// cold/long is 256 Ki objects of up to 47 keywords, the binary-search side.
func BenchmarkHasAll(b *testing.B) {
	for _, bc := range []struct {
		name      string
		n, maxDoc int
	}{
		{"hot", 1 << 10, 11},
		{"cold/short", 1 << 20, 11},
		{"cold/long", 1 << 18, 47},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			objs := make([]Object, bc.n)
			for i := range objs {
				doc := make([]Keyword, 1+rng.Intn(bc.maxDoc))
				for j := range doc {
					doc[j] = Keyword(rng.Intn(4096))
				}
				objs[i] = Object{Point: geom.Point{0}, Doc: doc}
			}
			ids := make([]int32, 1<<16)
			wss := make([][2]Keyword, len(ids))
			for i := range ids {
				ids[i] = int32(rng.Intn(bc.n))
				d := objs[ids[i]].Doc
				wss[i] = [2]Keyword{d[rng.Intn(len(d))], Keyword(rng.Intn(4096))}
			}
			ds := MustNew(objs)
			hits := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i & (len(ids) - 1)
				if ds.HasAll(ids[j], wss[j][:]) {
					hits++
				}
			}
			_ = hits
		})
	}
}

// TestTwoWideNewMatchesOneWide: New's two halves lay out the same columns as
// one pass, byte for byte, over documents with duplicate and unsorted
// keywords, and a failing object in either half, or in both, is reported as
// one pass reports it: the lowest, with the same message.
func TestTwoWideNewMatchesOneWide(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(300)
		objs := make([]Object, n)
		for i := range objs {
			doc := make([]Keyword, 1+rng.Intn(8))
			for j := range doc {
				doc[j] = Keyword(rng.Intn(12)) // duplicates are common
			}
			objs[i] = Object{Point: geom.Point{float64(rng.Intn(5)), math.Inf(1 - 2*rng.Intn(2))}, Doc: doc}
		}
		for range rng.Intn(3) {
			switch o := &objs[rng.Intn(n)]; rng.Intn(3) {
			case 0:
				o.Doc = nil
			case 1:
				o.Point = geom.Point{math.NaN(), 0}
			default:
				o.Point = geom.Point{1}
			}
		}
		one, err1 := newDataset(objs, false)
		two, err2 := newDataset(objs, true)
		if (err1 == nil) != (err2 == nil) || err1 != nil && err1.Error() != err2.Error() {
			t.Fatalf("trial %d: one-wide error %v, two-wide %v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		p1, s1, w1 := one.Columns()
		p2, s2, w2 := two.Columns()
		if !slices.Equal(p1, p2) || !slices.Equal(s1, s2) || !slices.Equal(w1, w2) || cap(w1) != cap(w2) || one.W() != two.W() {
			t.Fatalf("trial %d over %d objects: two-wide columns differ from one-wide", trial, n)
		}
	}
}
