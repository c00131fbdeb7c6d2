// Package spart provides the space-partitioning indexes that Step 1 of the
// paper's transformation framework starts from (Section 3.1 and Appendix
// D.1): trees whose nodes carry geometric cells such that (i) a node's cell
// covers all points in its subtree, (ii) the root cell is the whole space,
// and (iii) sibling cells are interior-disjoint parts of the parent cell (a
// kd cut between two distinct coordinates leaves the gap to neither).
//
// The package abstracts the partitioning policy behind the Splitter
// interface so the same keyword-transformation code (internal/core) runs on
// the 2D kd-tree of Theorem 1, the Willard ham-sandwich partition tree used
// in place of Chan's optimal partition tree for Theorem 12 (see DESIGN.md,
// substitution 1), and the grid splitter used for ablation.
package spart

import "kwsc/internal/geom"

// Cell is a node's geometric cell. Its concrete type is owned by the
// Splitter that produced it (*geom.Rect for kd/grid, *geom.Polygon for
// the Willard tree).
type Cell any

// PivotChild is the assignment code meaning "this object lies on a splitting
// boundary and becomes a pivot of the node" (the pivot sets of Section 3.2).
const PivotChild int8 = -1

// Splitter is a space-partitioning policy.
type Splitter interface {
	// Fanout returns the maximum number of children a split produces.
	Fanout() int
	// RootCell returns the cell of the root node, covering every point.
	RootCell(pts []geom.Point, objs []int32) Cell
	// Split partitions the objects of a node into child cells. pts and
	// weight are global arrays indexed by object id (weight may be nil,
	// meaning unit weights); objs lists the node's objects. It returns the
	// child cells, an assignment per object (child index, or PivotChild for
	// objects on split boundaries), and ok=false when no useful split
	// exists (the caller should make the node a leaf). Child cells may be
	// returned for empty children; the caller prunes them.
	Split(cell Cell, objs []int32, pts []geom.Point, weight []int32, depth int) (children []Cell, assign []int8, ok bool)
	// Relate classifies query region q against cell c.
	Relate(c Cell, q geom.Region) geom.Relation
}

// weightOf returns the weight of object id under an optional weight array.
func weightOf(weight []int32, id int32) int64 {
	if weight == nil {
		return 1
	}
	return int64(weight[id])
}

// totalWeight sums the weights of objs.
func totalWeight(objs []int32, weight []int32) int64 {
	var s int64
	for _, id := range objs {
		s += weightOf(weight, id)
	}
	return s
}
