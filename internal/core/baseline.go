package core

import (
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/spart"
)

// StructuredOnly is the second naive baseline of Section 1: retrieve every
// object satisfying the structured condition from a plain (keyword-free)
// geometry index, then eliminate the objects whose documents miss a keyword.
// Like the keywords-only baseline it can do Theta(region size) work even
// when nothing qualifies — the drawback the paper's indexes remove.
type StructuredOnly struct {
	ds   *dataset.Dataset
	tree *spart.Tree
}

// BuildStructuredOnly builds the baseline over the dataset's points using
// the given splitter (nil selects kd over the raw coordinates).
func BuildStructuredOnly(ds *dataset.Dataset, split spart.Splitter) *StructuredOnly {
	if split == nil {
		split = &spart.KD{Dim: ds.Dim()}
	}
	pts := make([]geom.Point, ds.Len())
	for i := range pts {
		pts[i] = ds.Point(int32(i))
	}
	return &StructuredOnly{ds: ds, tree: spart.BuildTree(pts, nil, split, 8)}
}

// Query reports objects in q containing all keywords; Candidates counts the
// objects the geometric phase surfaced before keyword filtering.
func (b *StructuredOnly) Query(q geom.Region, ws []dataset.Keyword) (out []int32, candidates int, stats spart.QueryStats) {
	stats = b.tree.Query(q, func(id int32) {
		candidates++
		if b.ds.HasAll(id, ws) {
			out = append(out, id)
		}
	})
	return out, candidates, stats
}

// Tree exposes the underlying plain tree (for the crossing-sensitivity
// experiments, which measure the geometry substrate in isolation).
func (b *StructuredOnly) Tree() *spart.Tree { return b.tree }
