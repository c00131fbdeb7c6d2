package main

import (
	"fmt"
	"math/bits"
	"sort"

	"kwsc/internal/dataset"
)

// wordParallel1D is the word-parallel one-dimensional ORP-KW index of the
// literature line the paper reviews in Section 2 (Bille-Pagh-Pagh /
// Goodrich): intersect the query keywords' posting sets in O(N/w)-flavored
// time by AND-ing per-keyword position bitmaps, where w is the machine word
// length. It trades the paper's O(N^{1-1/k}) OUT-insensitive bound for a
// bound of the form O(n k / w + OUT) that is excellent when the lists are
// dense, and is the third route of ablation A3.
//
// Unlike the framework indexes, the query arity k is not fixed at build
// time: any number of keywords >= 1 is accepted.
type wordParallel1D struct {
	ds     *dataset.Dataset
	order  []int32   // object ids sorted by coordinate (ties by id)
	coords []float64 // coordinates in sorted order

	dense  map[dataset.Keyword][]uint64 // position bitmaps (n bits)
	sparse map[dataset.Keyword][]int32  // sorted position lists
}

// buildWordParallel1D constructs the index; the dataset must be
// 1-dimensional.
func buildWordParallel1D(ds *dataset.Dataset) (*wordParallel1D, error) {
	if ds.Dim() != 1 {
		return nil, fmt.Errorf("wordparallel: 1-dimensional datasets only, got d=%d", ds.Dim())
	}
	n := ds.Len()
	ix := &wordParallel1D{
		ds:     ds,
		order:  make([]int32, n),
		coords: make([]float64, n),
		dense:  make(map[dataset.Keyword][]uint64),
		sparse: make(map[dataset.Keyword][]int32),
	}
	for i := range ix.order {
		ix.order[i] = int32(i)
	}
	sort.Slice(ix.order, func(a, b int) bool {
		pa, pb := ds.Point(ix.order[a])[0], ds.Point(ix.order[b])[0]
		if pa != pb {
			return pa < pb
		}
		return ix.order[a] < ix.order[b]
	})
	for p, id := range ix.order {
		ix.coords[p] = ds.Point(id)[0]
	}
	// Posting positions per keyword.
	postings := make(map[dataset.Keyword][]int32)
	for p, id := range ix.order {
		for _, w := range ds.Doc(id) {
			postings[w] = append(postings[w], int32(p))
		}
	}
	threshold := n/64 + 1
	words := (n + 63) / 64
	for w, lst := range postings {
		if len(lst) >= threshold {
			bm := make([]uint64, words)
			for _, p := range lst {
				bm[p>>6] |= 1 << (uint(p) & 63)
			}
			ix.dense[w] = bm
		} else {
			ix.sparse[w] = lst // already sorted: built in position order
		}
	}
	return ix, nil
}

// wordParallelStats instruments one query.
type wordParallelStats struct {
	WordOps int64 // 64-bit AND/mask operations
	ListOps int64 // sparse-list entries examined
}

// collect returns the ids of all objects with coordinate in [lo, hi] whose
// documents contain every keyword in ws (ws must be non-empty and
// duplicate-free).
func (ix *wordParallel1D) collect(lo, hi float64, ws []dataset.Keyword) ([]int32, wordParallelStats, error) {
	var out []int32
	var st wordParallelStats
	if len(ws) == 0 {
		return nil, st, fmt.Errorf("wordparallel: at least one keyword required")
	}
	seen := make(map[dataset.Keyword]struct{}, len(ws))
	for _, w := range ws {
		if _, dup := seen[w]; dup {
			return nil, st, fmt.Errorf("wordparallel: duplicate keyword %d", w)
		}
		seen[w] = struct{}{}
	}
	n := len(ix.order)
	from := sort.SearchFloat64s(ix.coords, lo)
	to := sort.Search(n, func(p int) bool { return ix.coords[p] > hi }) // exclusive
	if from >= to {
		return nil, st, nil
	}
	// Choose the cheapest route: the sparsest sparse list, if any.
	var bestSparse []int32
	hasSparse := false
	for _, w := range ws {
		if lst, ok := ix.sparse[w]; ok {
			if !hasSparse || len(lst) < len(bestSparse) {
				bestSparse, hasSparse = lst, true
			}
		} else if _, ok := ix.dense[w]; !ok {
			return nil, st, nil // keyword absent entirely
		}
	}
	if hasSparse {
		start := sort.Search(len(bestSparse), func(i int) bool { return int(bestSparse[i]) >= from })
		for _, p := range bestSparse[start:] {
			if int(p) >= to {
				break
			}
			st.ListOps++
			id := ix.order[p]
			if ix.ds.HasAll(id, ws) {
				out = append(out, id)
			}
		}
		return out, st, nil
	}
	// All dense: word-parallel AND over the position window.
	bms := make([][]uint64, len(ws))
	for i, w := range ws {
		bms[i] = ix.dense[w]
	}
	firstWord, lastWord := from>>6, (to-1)>>6
	for wi := firstWord; wi <= lastWord; wi++ {
		acc := ^uint64(0)
		for _, bm := range bms {
			acc &= bm[wi]
			st.WordOps++
		}
		if wi == firstWord {
			acc &= ^uint64(0) << (uint(from) & 63)
		}
		if wi == lastWord {
			rem := uint(to-1)&63 + 1
			if rem < 64 {
				acc &= (1 << rem) - 1
			}
		}
		for acc != 0 {
			b := bits.TrailingZeros64(acc)
			acc &= acc - 1
			out = append(out, ix.order[wi<<6+b])
		}
	}
	return out, st, nil
}

// denseKeywords returns how many keywords carry bitmaps.
func (ix *wordParallel1D) denseKeywords() int { return len(ix.dense) }
