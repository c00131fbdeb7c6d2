package dataset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kwsc/internal/geom"
)

func small() *Dataset {
	return MustNew([]Object{
		{Point: geom.Point{1, 2}, Doc: []Keyword{3, 1, 3}}, // dup collapses
		{Point: geom.Point{4, 5}, Doc: []Keyword{2}},
		{Point: geom.Point{0, 0}, Doc: []Keyword{1, 2, 5}},
	})
}

func TestNewValidates(t *testing.T) {
	if _, err := New(nil); err != ErrEmpty {
		t.Fatalf("empty input: err = %v, want ErrEmpty", err)
	}
	if _, err := New([]Object{{Point: geom.Point{1}, Doc: nil}}); err == nil {
		t.Fatal("empty document must be rejected")
	}
	if _, err := New([]Object{
		{Point: geom.Point{1, 2}, Doc: []Keyword{1}},
		{Point: geom.Point{1}, Doc: []Keyword{1}},
	}); err == nil {
		t.Fatal("mixed dimensions must be rejected")
	}
	if _, err := New([]Object{{Point: geom.Point{}, Doc: []Keyword{1}}}); err == nil {
		t.Fatal("zero-dimensional points must be rejected")
	}
}

func TestAccessors(t *testing.T) {
	ds := small()
	if ds.Len() != 3 {
		t.Fatalf("Len = %d", ds.Len())
	}
	if ds.N() != 6 { // docs: {1,3}, {2}, {1,2,5}
		t.Fatalf("N = %d, want 6", ds.N())
	}
	if ds.W() != 6 { // max keyword 5 -> bound 6
		t.Fatalf("W = %d, want 6", ds.W())
	}
	if ds.Dim() != 2 {
		t.Fatalf("Dim = %d", ds.Dim())
	}
	if ds.DocLen(0) != 2 {
		t.Fatalf("DocLen(0) = %d, want 2 after dedupe", ds.DocLen(0))
	}
	if !ds.Point(1).Equal(geom.Point{4, 5}) {
		t.Fatal("Point accessor wrong")
	}
}

func TestHasAndHasAll(t *testing.T) {
	ds := small()
	if !ds.Has(0, 1) || !ds.Has(0, 3) || ds.Has(0, 2) {
		t.Fatal("Has wrong")
	}
	if !ds.HasAll(2, []Keyword{1, 2}) {
		t.Fatal("HasAll false negative")
	}
	if ds.HasAll(2, []Keyword{1, 4}) {
		t.Fatal("HasAll false positive")
	}
	if !ds.HasAll(0, nil) {
		t.Fatal("HasAll of no keywords is vacuously true")
	}
}

func TestValidateKeywords(t *testing.T) {
	if err := ValidateKeywords([]Keyword{1, 2}); err != nil {
		t.Fatalf("valid pair rejected: %v", err)
	}
	if err := ValidateKeywords([]Keyword{1}); err == nil {
		t.Fatal("k=1 must be rejected")
	}
	if err := ValidateKeywords([]Keyword{1, 1}); err == nil {
		t.Fatal("duplicates must be rejected")
	}
}

func TestFilterOracle(t *testing.T) {
	ds := small()
	got := ds.Filter(geom.NewRect([]float64{0, 0}, []float64{2, 3}), []Keyword{1})
	// Objects 0 (1,2) and 2 (0,0) are in range; both contain keyword 1.
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Filter = %v", got)
	}
}

func TestRankSpaceDistinctRanks(t *testing.T) {
	// Heavy ties: all x equal, several y equal.
	objs := []Object{
		{Point: geom.Point{1, 7}, Doc: []Keyword{0}},
		{Point: geom.Point{1, 7}, Doc: []Keyword{0}},
		{Point: geom.Point{1, 3}, Doc: []Keyword{0}},
		{Point: geom.Point{1, 9}, Doc: []Keyword{0}},
	}
	ds := MustNew(objs)
	rs := NewRankSpace(ds)
	for j := 0; j < 2; j++ {
		seen := map[int32]bool{}
		for i := 0; i < ds.Len(); i++ {
			r := rs.Rank(int32(i), j)
			if r < 0 || int(r) >= ds.Len() {
				t.Fatalf("rank out of range: %d", r)
			}
			if seen[r] {
				t.Fatalf("duplicate rank %d on dim %d", r, j)
			}
			seen[r] = true
		}
	}
	// Ties on y (7,7) must break by id: object 0 before object 1.
	if rs.Rank(0, 1) >= rs.Rank(1, 1) {
		t.Fatal("tie-break by id violated")
	}
}

func TestToRankRectEmpty(t *testing.T) {
	ds := small()
	rs := NewRankSpace(ds)
	if _, ok := rs.ToRankRect(geom.NewRect([]float64{10, 10}, []float64{20, 20})); ok {
		t.Fatal("rectangle beyond all coordinates must convert to empty")
	}
}

func TestToRankRectInfinite(t *testing.T) {
	ds := small()
	rs := NewRankSpace(ds)
	inf := math.Inf(1)
	rq, ok := rs.ToRankRect(&geom.Rect{Lo: []float64{-inf, -inf}, Hi: []float64{inf, inf}})
	if !ok {
		t.Fatal("universe must convert")
	}
	if rq.Lo[0] != 0 || rq.Hi[0] != float64(ds.Len()-1) {
		t.Fatalf("universe rank rect = %v", rq)
	}
}

// Property (the Step 4 guarantee): for random data and queries, rank-space
// containment of rank points equals original-space containment of original
// points.
func TestRankSpaceQueryEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func() bool {
		n := 2 + rng.Intn(60)
		objs := make([]Object, n)
		for i := range objs {
			// Coarse grid coordinates force plenty of ties.
			objs[i] = Object{
				Point: geom.Point{float64(rng.Intn(8)), float64(rng.Intn(8))},
				Doc:   []Keyword{0},
			}
		}
		ds := MustNew(objs)
		rs := NewRankSpace(ds)
		q := &geom.Rect{
			Lo: []float64{float64(rng.Intn(8)) - 0.5, float64(rng.Intn(8)) - 0.5},
			Hi: []float64{float64(rng.Intn(10)), float64(rng.Intn(10))},
		}
		if q.Lo[0] > q.Hi[0] || q.Lo[1] > q.Hi[1] {
			return true
		}
		rq, okc := rs.ToRankRect(q)
		for i := 0; i < n; i++ {
			id := int32(i)
			orig := q.ContainsPoint(ds.Point(id))
			var rank bool
			if okc {
				rank = rq.ContainsPoint(rs.RankPoint(id))
			}
			if orig != rank {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestRankSpaceSpaceWords(t *testing.T) {
	rs := NewRankSpace(small())
	if rs.SpaceWords() <= 0 {
		t.Fatal("SpaceWords must be positive")
	}
	if rs.Dim() != 2 {
		t.Fatal("Dim wrong")
	}
}
