package core

import (
	"fmt"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
)

// KSI is the k-set-intersection index of Section 1.2: pure keyword search as
// an ORP-KW instance where every object is mapped to an arbitrary point and
// queries use the search rectangle q := R^d. It inherits the framework's
// O(N^{1-1/k} (1 + OUT^{1/k})) reporting bound, which Lemma 8 shows is tight
// (up to sub-polynomial factors) under the strong set-intersection and
// strong k-set-disjointness conjectures.
type KSI struct {
	ds *dataset.Dataset
	fw *Framework

	fam family
}

// BuildKSI indexes the sets S_0..S_{m-1}: sets[i] lists the elements of set
// i, with elements drawn from any integer universe. Following the reduction
// of Section 1.2, the object universe is the union of the sets and object
// e's document is {i : e in S_i}.
func BuildKSI(sets [][]int64, k int, opts ...BuildOption) (*KSI, error) {
	if len(sets) < 2 {
		return nil, fmt.Errorf("%w: k-SI needs at least 2 sets, got %d", ErrInvalidDataset, len(sets))
	}
	docs := make(map[int64][]dataset.Keyword)
	for i, s := range sets {
		for _, e := range s {
			docs[e] = append(docs[e], dataset.Keyword(i))
		}
	}
	objs := make([]dataset.Object, 0, len(docs))
	for e, doc := range docs {
		// "Map each object to an arbitrary point": spread objects on a line
		// of distinct coordinates (the element value itself works, with a
		// second coordinate for d=2).
		objs = append(objs, dataset.Object{
			Point: geom.Point{float64(e), float64(e)},
			Doc:   doc,
		})
	}
	ds, err := dataset.New(objs)
	if err != nil {
		return nil, err
	}
	return BuildKSIFromDataset(ds, k, opts...)
}

// BuildKSIFromDataset treats an existing dataset's documents as the sets
// (keyword w's set S_w is the objects containing w) and indexes pure keyword
// search over them.
func BuildKSIFromDataset(ds *dataset.Dataset, k int, opts ...BuildOption) (*KSI, error) {
	o := resolveOpts(opts)
	bt := obsBuildStart()
	// The ORP-KW instance is the reduction's vehicle: untagged, so k-SI
	// queries are counted under the ksi family only.
	orp, err := buildORPKW(ds, k, o.inner())
	if err != nil {
		return nil, err
	}
	ix := &KSI{ds: ds, fw: orp.Framework(), fam: o.famFor(famKSI)}
	obsBuildEnd(ix.fam, bt)
	return ix, nil
}

// Report answers a k-SI reporting query: the ids of the objects carrying all
// k keywords (equivalently, the intersection of the k sets).
func (ix *KSI) Report(ws []dataset.Keyword, opts QueryOpts) (out []int32, st QueryStats, err error) {
	qt := obsBegin(ix.fam)
	defer func() {
		if obsEnd(ix.fam, qt, &st, err) {
			obsSpan(ix.fam, "Report", echoQuery("k-SI", ws), ix.fw.K(), qt, &st, err)
		}
	}()
	st, err = ix.fw.Query(geom.FullSpace{}, ws, opts, func(id int32) { out = append(out, id) })
	return out, st, err
}

// Empty answers a k-SI emptiness query by running a budgeted reporting
// query: per Section 1.2 (footnote 4), if the reporting query exceeds its
// O(N^{1-1/k}) budget without finishing, the intersection must be non-empty.
func (ix *KSI) Empty(ws []dataset.Keyword) (empty bool, st QueryStats, err error) {
	qt := obsBegin(ix.fam)
	defer func() {
		if obsEnd(ix.fam, qt, &st, err) {
			obsSpan(ix.fam, "Empty", echoQuery("k-SI", ws), ix.fw.K(), qt, &st, err)
		}
	}()
	st, err = ix.fw.Query(geom.FullSpace{}, ws, QueryOpts{Limit: 1}, func(int32) {})
	return st.Reported == 0, st, err
}

// Dataset returns the reduction's dataset.
func (ix *KSI) Dataset() *dataset.Dataset { return ix.ds }

// Space returns the analytic space audit.
func (ix *KSI) Space() SpaceBreakdown { return ix.fw.Space() }
