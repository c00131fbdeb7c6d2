package main

import (
	"fmt"
	"math"

	"kwsc/internal/bits"
	"kwsc/internal/dataset"
)

// twoSI is the set-intersection index of Cohen and Porat ("Fast set
// intersection and two-patterns matching", TCS 2010) that Section 3.5 of
// Lu & Tao credits as the inspiration for their transformation framework:
// O(N) space and O(sqrt(N) (1 + sqrt(OUT))) reporting time for the
// intersection of two sets, with no geometry involved. It is ablation A2's
// baseline: the framework's k-SI index subsumes it.
//
// The structure is the framework stripped to its combinatorial core: a
// balanced binary tree over the element universe where each node u
// classifies the incoming keywords as large (frequency >= sqrt(N_u)) or
// small, stores an L x L bit matrix recording which large pairs have a
// non-empty intersection in each child, and materializes the element list of
// every keyword at the node where it first becomes small.
type twoSI struct {
	ds    *dataset.Dataset
	nodes []twoSINode
}

type twoSINode struct {
	children [2]int32
	leafObjs []int32
	large    map[dataset.Keyword]int32
	l        int32
	matrix   [2]*bits.Dense // per child: L*L bits, row-major, bit => non-empty
	mat      map[dataset.Keyword][]int32
}

const twoSILeafSize = 8

// buildTwoSI constructs the index in O(N log N) time.
func buildTwoSI(ds *dataset.Dataset) *twoSI {
	ix := &twoSI{ds: ds}
	objs := make([]int32, ds.Len())
	for i := range objs {
		objs[i] = int32(i)
	}
	incoming := make([]dataset.Keyword, 0, 64)
	seen := make(map[dataset.Keyword]struct{})
	for _, id := range objs {
		for _, w := range ds.Doc(id) {
			if _, ok := seen[w]; !ok {
				seen[w] = struct{}{}
				incoming = append(incoming, w)
			}
		}
	}
	ix.build(objs, incoming)
	return ix
}

func (ix *twoSI) build(objs []int32, incoming []dataset.Keyword) int32 {
	idx := int32(len(ix.nodes))
	ix.nodes = append(ix.nodes, twoSINode{children: [2]int32{-1, -1}})
	if len(objs) <= twoSILeafSize {
		ix.nodes[idx].leafObjs = append([]int32(nil), objs...)
		return idx
	}
	var nu int64
	cnt := make(map[dataset.Keyword]int64, len(incoming))
	for _, w := range incoming {
		cnt[w] = 0
	}
	for _, id := range objs {
		nu += int64(ix.ds.DocLen(id))
		for _, w := range ix.ds.Doc(id) {
			if _, track := cnt[w]; track {
				cnt[w]++
			}
		}
	}
	threshold := math.Sqrt(float64(nu))
	large := make(map[dataset.Keyword]int32)
	var largeList []dataset.Keyword
	for _, w := range incoming {
		if float64(cnt[w]) >= threshold {
			large[w] = int32(len(largeList))
			largeList = append(largeList, w)
		}
	}
	mat := make(map[dataset.Keyword][]int32)
	for _, id := range objs {
		for _, w := range ix.ds.Doc(id) {
			if c, track := cnt[w]; track && c > 0 {
				if _, isLarge := large[w]; !isLarge {
					mat[w] = append(mat[w], id)
				}
			}
		}
	}
	// Split the objects in half by id order (the "element universe" split).
	mid := len(objs) / 2
	halves := [2][]int32{objs[:mid], objs[mid:]}
	L := len(largeList)
	ix.nodes[idx].large = large
	ix.nodes[idx].l = int32(L)
	ix.nodes[idx].mat = mat
	for c, half := range halves {
		m := bits.NewDense(L * L)
		scratch := make([]int32, 0, 16)
		for _, id := range half {
			scratch = scratch[:0]
			for _, w := range ix.ds.Doc(id) {
				if li, ok := large[w]; ok {
					scratch = append(scratch, li)
				}
			}
			for i := 0; i < len(scratch); i++ {
				for j := i + 1; j < len(scratch); j++ {
					a, b := scratch[i], scratch[j]
					if a > b {
						a, b = b, a
					}
					m.Set(int(a)*L + int(b))
				}
			}
		}
		ix.nodes[idx].matrix[c] = m
		child := ix.build(half, largeList)
		ix.nodes[idx].children[c] = child
	}
	return idx
}

// twoSIStats instruments one query.
type twoSIStats struct {
	NodesVisited int
	Scanned      int64
}

// report returns the ids of objects containing both keywords a and b.
func (ix *twoSI) report(a, b dataset.Keyword) ([]int32, twoSIStats, error) {
	if a == b {
		return nil, twoSIStats{}, fmt.Errorf("twosi: keywords must be distinct, got %d twice", a)
	}
	var out []int32
	var st twoSIStats
	ix.visit(0, a, b, &out, &st)
	return out, st, nil
}

func (ix *twoSI) visit(u int32, a, b dataset.Keyword, out *[]int32, st *twoSIStats) {
	n := &ix.nodes[u]
	st.NodesVisited++
	if n.leafObjs != nil {
		for _, id := range n.leafObjs {
			st.Scanned++
			if ix.ds.Has(id, a) && ix.ds.Has(id, b) {
				*out = append(*out, id)
			}
		}
		return
	}
	la, okA := n.large[a]
	lb, okB := n.large[b]
	if !okA || !okB {
		// At least one keyword is small here: scan the shorter materialized
		// list (it covers every qualifying object of the subtree).
		w := a
		if okA || (!okB && len(n.mat[b]) < len(n.mat[a])) {
			w = b
		}
		other := a
		if w == a {
			other = b
		}
		for _, id := range n.mat[w] {
			st.Scanned++
			if ix.ds.Has(id, other) {
				*out = append(*out, id)
			}
		}
		return
	}
	lo, hi := la, lb
	if lo > hi {
		lo, hi = hi, lo
	}
	bit := int(lo)*int(n.l) + int(hi)
	for c := 0; c < 2; c++ {
		if n.matrix[c].Get(bit) {
			ix.visit(n.children[c], a, b, out, st)
		}
	}
}
