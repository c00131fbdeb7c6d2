// Package dataset defines the input data model shared by every problem in
// the paper (Section 1.1): a set D of objects, each carrying a point in R^d
// and a non-empty document e.Doc formulated as a set of integer keywords.
// The input size is N = sum_e |e.Doc| (equation (2)), and W is the number of
// distinct keywords; w.l.o.g. keywords are integers in [0, W).
package dataset

import (
	"errors"
	"fmt"
	"slices"

	"kwsc/internal/geom"
)

// Keyword is an integer keyword. The paper treats keywords as integers in
// [1, W]; we use [0, W).
type Keyword = uint32

// Object is one element of D: a point plus its document.
type Object struct {
	Point geom.Point
	Doc   []Keyword
}

// Dataset is a validated, immutable input instance, held as the three
// columns a flat image stores: no per-object header, nothing for the
// collector to trace, and the same form whether the columns were copied by
// New or alias a read-only mapping through FromColumns.
type Dataset struct {
	points   []float64 // row-major, dim coordinates per object
	docStart []int64   // len n+1: object i's document is docWords[docStart[i]:docStart[i+1]]
	docWords []Keyword // every document sorted, strictly increasing
	w        int       // vocabulary bound: keywords < w
	dim      int
}

// scanMax is the longest document Has scans linearly — one 64-byte cache
// line of keywords; longer documents are binary-searched (DESIGN §3
// substitution 6 has the measurement).
const scanMax = 16

// ErrEmpty is returned when constructing a dataset with no objects.
var ErrEmpty = errors.New("dataset: no objects")

// New validates the objects and copies them into the columns, sorting and
// de-duplicating each document on the way. It never writes to objs. Every
// object must have a non-empty document and a point of the same
// dimensionality.
func New(objs []Object) (*Dataset, error) {
	if len(objs) == 0 {
		return nil, ErrEmpty
	}
	dim := len(objs[0].Point)
	if dim == 0 {
		return nil, errors.New("dataset: zero-dimensional points")
	}
	words := 0
	for i := range objs {
		if len(objs[i].Point) != dim {
			return nil, fmt.Errorf("dataset: object %d has dimension %d, want %d", i, len(objs[i].Point), dim)
		}
		if len(objs[i].Doc) == 0 {
			return nil, fmt.Errorf("dataset: object %d has an empty document", i)
		}
		words += len(objs[i].Doc)
	}
	ds := &Dataset{
		points:   make([]float64, 0, len(objs)*dim),
		docStart: make([]int64, len(objs)+1),
		docWords: make([]Keyword, 0, words),
		dim:      dim,
	}
	for i := range objs {
		ds.points = append(ds.points, objs[i].Point...)
		lo := len(ds.docWords)
		ds.docWords = append(ds.docWords, objs[i].Doc...)
		ds.docWords = ds.docWords[:lo+len(NormalizeDoc(ds.docWords[lo:]))]
		ds.docStart[i+1] = int64(len(ds.docWords))
		ds.w = max(ds.w, int(ds.docWords[len(ds.docWords)-1])+1)
	}
	return ds, nil
}

// FromColumns wraps existing columns — in practice the sections of a flat
// image — without copying or writing to them. Non-canonical input is
// rejected, not repaired: the lengths must agree, docStart must start at 0,
// increase strictly and end at len(docWords), and every document must be
// strictly increasing.
func FromColumns(dim int, points []float64, docStart []int64, docWords []Keyword) (*Dataset, error) {
	n := len(docStart) - 1
	if n < 1 {
		return nil, ErrEmpty
	}
	if dim < 1 {
		return nil, errors.New("dataset: zero-dimensional points")
	}
	if len(points) != n*dim {
		return nil, fmt.Errorf("dataset: %d point coordinates for %d objects of dimension %d", len(points), n, dim)
	}
	if docStart[0] != 0 || docStart[n] != int64(len(docWords)) {
		return nil, fmt.Errorf("dataset: document offsets run %d..%d over %d words", docStart[0], docStart[n], len(docWords))
	}
	w := 0
	for i := 0; i < n; i++ {
		lo, hi := docStart[i], docStart[i+1]
		if lo >= hi || hi > int64(len(docWords)) {
			return nil, fmt.Errorf("dataset: object %d has document offsets %d..%d", i, lo, hi)
		}
		doc := docWords[lo:hi]
		for j := 1; j < len(doc); j++ {
			if doc[j] <= doc[j-1] {
				return nil, fmt.Errorf("dataset: object %d document not strictly increasing", i)
			}
		}
		w = max(w, int(doc[len(doc)-1])+1)
	}
	return &Dataset{points: points, docStart: docStart, docWords: docWords, w: w, dim: dim}, nil
}

// MustNew is New that panics on error; intended for tests and examples.
func MustNew(objs []Object) *Dataset {
	ds, err := New(objs)
	if err != nil {
		panic(err)
	}
	return ds
}

// Columns returns the three columns for serialisation. They alias the
// dataset (and possibly a read-only mapping): callers must not write to them.
func (ds *Dataset) Columns() (points []float64, docStart []int64, docWords []Keyword) {
	return ds.points, ds.docStart, ds.docWords
}

// Len returns the number of objects |D| (0 for the zero Dataset).
func (ds *Dataset) Len() int { return max(len(ds.docStart)-1, 0) }

// N returns the input size N = sum_e |e.Doc| (equation (2)).
func (ds *Dataset) N() int64 { return int64(len(ds.docWords)) }

// W returns an upper bound on keyword values (all keywords are < W).
func (ds *Dataset) W() int { return ds.w }

// Dim returns the dimensionality of the points.
func (ds *Dataset) Dim() int { return ds.dim }

// Object returns a fresh view of object i (set-up paths; queries use Point
// and Doc).
func (ds *Dataset) Object(i int32) *Object { return &Object{Point: ds.Point(i), Doc: ds.Doc(i)} }

// Point returns the point of object i: a view of the column, clipped so an
// append cannot reach the next object.
func (ds *Dataset) Point(i int32) geom.Point {
	lo, hi := int(i)*ds.dim, (int(i)+1)*ds.dim
	return ds.points[lo:hi:hi]
}

// Doc returns the (sorted, de-duplicated) document of object i, a clipped
// view like Point.
func (ds *Dataset) Doc(i int32) []Keyword {
	lo, hi := ds.docStart[i], ds.docStart[i+1]
	return ds.docWords[lo:hi:hi]
}

// DocLen returns |e.Doc| for object i — the object's weight in the verbose
// set of Section 3.2.
func (ds *Dataset) DocLen(i int32) int32 { return int32(ds.docStart[i+1] - ds.docStart[i]) }

// Has reports whether keyword w appears in object i's document.
func (ds *Dataset) Has(i int32, w Keyword) bool {
	return has(ds.docWords[ds.docStart[i]:ds.docStart[i+1]], w)
}

// HasAll reports whether object i's document contains every keyword in ws —
// the membership test of D(w1,...,wk) in equation (1).
func (ds *Dataset) HasAll(i int32, ws []Keyword) bool {
	doc := ds.docWords[ds.docStart[i]:ds.docStart[i+1]]
	for _, w := range ws {
		if !has(doc, w) {
			return false
		}
	}
	return true
}

// has probes a sorted document in place. Up to scanMax keywords it scans the
// whole document with no data-dependent branch: stopping at the first word
// >= w mispredicts once per probe when queries vary, which costs more than
// the rest of the cache line. Longer documents are binary-searched.
func has(doc []Keyword, w Keyword) bool {
	if len(doc) > scanMax {
		_, ok := slices.BinarySearch(doc, w)
		return ok
	}
	hit := 0
	for _, x := range doc {
		if x == w {
			hit = 1
		}
	}
	return hit != 0
}

// ValidateKeywords checks a query keyword tuple: it must have at least two
// distinct keywords (the paper fixes k >= 2) and no duplicates. The check is
// quadratic but allocation-free — k is a small constant on the query hot
// path.
func ValidateKeywords(ws []Keyword) error {
	if len(ws) < 2 {
		return fmt.Errorf("dataset: query needs k >= 2 keywords, got %d", len(ws))
	}
	for i := 1; i < len(ws); i++ {
		for j := 0; j < i; j++ {
			if ws[i] == ws[j] {
				return fmt.Errorf("dataset: duplicate query keyword %d", ws[i])
			}
		}
	}
	return nil
}

// Filter returns, by brute force, the ids of all objects whose documents
// contain every keyword in ws and whose points lie in region q. This is the
// ground-truth oracle used by the test suite and the final stage of the
// naive baselines.
func (ds *Dataset) Filter(q geom.Region, ws []Keyword) []int32 {
	var out []int32
	for id := int32(0); int(id) < ds.Len(); id++ {
		if ds.HasAll(id, ws) && q.ContainsPoint(ds.Point(id)) {
			out = append(out, id)
		}
	}
	return out
}

// NormalizeDoc sorts ws in place and removes duplicates, returning the
// (possibly shortened) slice — the canonical document form every index and
// codec operates on. ws must be non-empty.
func NormalizeDoc(ws []Keyword) []Keyword {
	slices.Sort(ws)
	return slices.Compact(ws)
}
