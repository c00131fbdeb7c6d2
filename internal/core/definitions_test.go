package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/spart"
	"kwsc/internal/workload"
)

// checkDefinitions holds a built or opened framework to the definitions of
// Section 3.2, node by node from the root. A node's incoming keywords are
// those large at its parent, every keyword at the root, and its active count
// of a keyword is how many objects of its rank interval carry it:
//   - an incoming keyword is large iff its active count is at least
//     N_u^{1-1/k}, and no other keyword is;
//   - a small incoming keyword with active objects has a materialized list
//     holding exactly them, and no other keyword has one;
//   - the tensor bit of child c at a sorted tuple of k large axes is set iff
//     some object of c's interval carries all k keywords, and no other bit
//     of c's tensor is set;
//   - at most N_u^{1/k} keywords are large at u;
//   - a leaf carries no keyword structure.
//
// The counts and tuples come from the documents alone, never from the
// builder's runs, so the checker holds across changes to how the structures
// are built.
func checkDefinitions(f *Framework) error {
	k := float64(f.k)
	type visit struct {
		u        int32
		incoming map[dataset.Keyword]bool // nil at the root: every keyword
	}
	stack := []visit{{u: 0}}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		u := v.u
		lo, hi := f.rankLo[u], f.rankLo[u]+f.rankSpan[u]
		L, mats := int(f.l[u]), f.matStart[u+1]-f.matStart[u]
		if f.childCount[u] == 0 {
			if L != 0 || mats != 0 {
				return fmt.Errorf("leaf %d carries %d large keywords and %d lists", u, L, mats)
			}
			continue
		}
		active := map[dataset.Keyword][]int32{} // incoming keyword -> the ranks carrying it
		for r := lo; r < hi; r++ {
			for _, w := range f.rows.Doc(r) {
				if v.incoming == nil || v.incoming[w] {
					active[w] = append(active[w], r)
				}
			}
		}
		threshold := math.Pow(float64(f.nu[u]), 1-1/k)
		axis := map[dataset.Keyword]int32{} // large keyword -> tensor axis
		byAxis := make([]dataset.Keyword, L)
		for i := f.largeStart[u]; i < f.largeStart[u+1]; i++ {
			w, a := f.largeKeys[i], f.largeIdx[i]
			if a < 0 || int(a) >= L || byAxis[a] != 0 || axis[w] != 0 {
				return fmt.Errorf("node %d: large keyword %d on axis %d of %d, twice or out of range", u, w, a, L)
			}
			axis[w], byAxis[a] = a+1, w // +1 tells a stored axis 0 from none
			if c := len(active[w]); float64(c) < threshold {
				return fmt.Errorf("node %d: keyword %d is large with %d active objects, below N_u^{1-1/k} = %.2f (or not incoming)", u, w, c, threshold)
			}
		}
		listed := map[dataset.Keyword]bool{}
		for i := f.matStart[u]; i < f.matStart[u+1]; i++ {
			w := f.matKeys[i]
			want := active[w]
			if c := len(want); c == 0 || float64(c) >= threshold || listed[w] {
				return fmt.Errorf("node %d: keyword %d has a list with %d active objects (threshold %.2f; or not incoming, or listed twice)", u, w, c, threshold)
			}
			listed[w] = true
			if got := ranksOf(f, int(u), i); !slices.Equal(got, want) || int(f.matLists[i].N) != len(want) {
				return fmt.Errorf("node %d: list of keyword %d holds %v (claims %d), its active objects are ranks %v", u, w, got, f.matLists[i].N, want)
			}
		}
		for w, ranks := range active {
			c := len(ranks)
			if isLarge := float64(c) >= threshold; isLarge != (axis[w] != 0) || !isLarge && !listed[w] {
				return fmt.Errorf("node %d: incoming keyword %d with %d active objects (threshold %.2f): large %v, listed %v", u, w, c, threshold, axis[w] != 0, listed[w])
			}
		}
		if float64(L) > math.Pow(float64(f.nu[u]), 1/k)*(1+1e-9) {
			return fmt.Errorf("node %d: %d large keywords, more than N_u^{1/k} = %.2f", u, L, math.Pow(float64(f.nu[u]), 1/k))
		}

		stride := (tensorSize(L, f.k) + 63) / 64
		if f.tensorStride[u] != stride {
			return fmt.Errorf("node %d: tensor stride %d words for %d large keywords, want %d", u, f.tensorStride[u], L, stride)
		}
		incoming := map[dataset.Keyword]bool{}
		for _, w := range byAxis {
			incoming[w] = true
		}
		for ci := int32(0); ci < f.childCount[u]; ci++ {
			c := f.childFirst[u] + ci
			want := make([]uint64, stride)
			var axes []int32
			for r := f.rankLo[c]; r < f.rankLo[c]+f.rankSpan[c]; r++ {
				axes = axes[:0]
				for _, w := range f.rows.Doc(r) {
					if a := axis[w]; a != 0 {
						axes = append(axes, a-1)
					}
				}
				slices.Sort(axes)
				forEachTuple(axes, f.k, func(tuple []int32) {
					lin := tensorIndex(tuple, L)
					want[lin>>6] |= 1 << (lin & 63)
				})
			}
			off := f.tensorOff[u] + int64(ci)*stride
			if got := f.tensorArena.Raw()[off : off+stride]; !slices.Equal(got, want) {
				return fmt.Errorf("node %d child %d: tensor words %x, the child's objects carry the tuples %x", u, ci, got, want)
			}
			stack = append(stack, visit{u: c, incoming: incoming})
		}
	}
	return nil
}

// forEachTuple calls fn with every k-subset of the ascending axes, in order.
func forEachTuple(axes []int32, k int, fn func([]int32)) {
	tuple := make([]int32, 0, k)
	var rec func(from int)
	rec = func(from int) {
		if len(tuple) == k {
			fn(tuple)
			return
		}
		for i := from; i <= len(axes)-(k-len(tuple)); i++ {
			tuple = append(tuple, axes[i])
			rec(i + 1)
			tuple = tuple[:len(tuple)-1]
		}
	}
	rec(0)
}

// Every static family's frameworks meet Section 3.2's definitions: ORP-KW at
// d = 2 and 3, the d = 2 secondaries of Theorem 2's index, LC-KW over each
// splitter, and SRP-KW's lifted tree. skew and dense are the corpora of
// TestLargeSmallInvariants and TestTensorSoundness: skew's Zipf 1.6 puts
// keywords on both sides of the threshold at many nodes, and dense's
// vocabulary of 12 puts several large keywords on most objects.
func TestFrameworkDefinitions(t *testing.T) {
	skew := workload.Gen(workload.Config{Seed: 3, Objects: 800, Dim: 2, Vocab: 40, DocLen: 5, ZipfS: 1.6})
	dense := workload.Gen(workload.Config{Seed: 4, Objects: 400, Dim: 2, Vocab: 12, DocLen: 4, ZipfS: 1.3})
	ds2 := workload.Gen(workload.Config{Seed: 5, Objects: 1500, Dim: 2, Vocab: 30, DocLen: 4})
	ds3 := workload.Gen(workload.Config{Seed: 6, Objects: 1500, Dim: 3, Vocab: 30, DocLen: 4})
	builds := []struct {
		name  string
		build func() ([]*Framework, error)
	}{
		{"ORPKW/skew/k=2", orpkwFrameworks(skew, 2)},
		{"ORPKW/dense/k=2", orpkwFrameworks(dense, 2)},
		{"ORPKW/dense/k=3", orpkwFrameworks(dense, 3)},
		{"ORPKW/d=2/k=3", orpkwFrameworks(ds2, 3)},
		{"ORPKW/d=3/k=2", orpkwFrameworks(ds3, 2)},
		{"ORPKWHigh/d=3/k=2", func() ([]*Framework, error) {
			ix, err := BuildORPKWHigh(ds3, 2, WithoutObs())
			if err != nil {
				return nil, err
			}
			return frameworksOf(t, ix), nil
		}},
		{"LCKW/KD", spkwFrameworks(ds2, &spart.KD{Dim: 2})},
		{"LCKW/Willard2D", spkwFrameworks(ds2, &spart.Willard2D{})},
		{"LCKW/Grid2D", spkwFrameworks(ds2, &spart.Grid2D{G: 4})},
		{"SRPKW", func() ([]*Framework, error) {
			ix, err := BuildSRPKW(ds2, 2, WithoutObs())
			if err != nil {
				return nil, err
			}
			return []*Framework{ix.sp.fw}, nil
		}},
	}
	for _, tc := range builds {
		t.Run(tc.name, func(t *testing.T) {
			fws, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			if len(fws) == 0 {
				t.Fatal("no framework to check")
			}
			large := 0
			for i, f := range fws {
				if err := checkDefinitions(f); err != nil {
					t.Fatalf("framework %d of %d: %v", i, len(fws), err)
				}
				large += len(f.largeKeys)
			}
			if large == 0 {
				t.Fatal("no keyword is large anywhere: the case checks no tensor")
			}
		})
	}
}

func orpkwFrameworks(ds *dataset.Dataset, k int) func() ([]*Framework, error) {
	return func() ([]*Framework, error) {
		ix, err := BuildORPKW(ds, k, WithoutObs())
		if err != nil {
			return nil, err
		}
		return []*Framework{ix.fw}, nil
	}
}

func spkwFrameworks(ds *dataset.Dataset, split spart.Splitter) func() ([]*Framework, error) {
	return func() ([]*Framework, error) {
		ix, err := BuildSPKW(ds, SPKWConfig{K: 2, Splitter: split}, WithoutObs())
		if err != nil {
			return nil, err
		}
		return []*Framework{ix.fw}, nil
	}
}

// checkOpenedDefinitions saves ix's image, opens it, and holds the opened
// framework to the definitions.
func checkOpenedDefinitions[I FlatIndex](t *testing.T, ix I) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "definitions.flat")
	if err := SaveFlat(path, ix); err != nil {
		t.Fatal(err)
	}
	opened, h, err := OpenFlat[I](path, FlatOptions{}, WithoutObs())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := checkDefinitions(opened.Framework()); err != nil {
		t.Fatalf("opened image: %v", err)
	}
}

// A hand-broken framework fails the checker: it checks something.
func TestCheckDefinitionsCatchesBrokenStructures(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 3, Objects: 800, Dim: 2, Vocab: 40, DocLen: 5, ZipfS: 1.6})
	firstSet := func(words []uint64) int {
		for i, w := range words {
			if w != 0 {
				return i
			}
		}
		return -1
	}
	breaks := []struct {
		name   string
		breaks func(f *Framework) bool // false when it found nothing to break
	}{
		{"tensor bit cleared", func(f *Framework) bool {
			words := f.tensorArena.Raw()
			i := firstSet(words)
			if i >= 0 {
				words[i] &= words[i] - 1
			}
			return i >= 0
		}},
		{"tensor bit set at an unsorted tuple", func(f *Framework) bool {
			lin := tensorIndex([]int32{1, 0}, int(f.l[0]))
			f.tensorArena.Raw()[f.tensorOff[0]+lin>>6] |= 1 << (lin & 63)
			return f.l[0] >= 2
		}},
		{"rank list entry dropped", func(f *Framework) bool {
			for i := range f.matLists {
				if f.matLists[i].Rep == ListRanks && f.matLists[i].N > 1 {
					f.matLists[i].N--
					return true
				}
			}
			return false
		}},
		{"bitmap list bit cleared", func(f *Framework) bool {
			i := firstSet(f.matBits)
			if i >= 0 {
				f.matBits[i] &= f.matBits[i] - 1
			}
			return i >= 0
		}},
		{"large keyword renamed", func(f *Framework) bool { f.largeKeys[0] = 1 << 30; return true }},
	}
	for _, tc := range breaks {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := BuildORPKW(ds, 2, WithoutObs())
			if err != nil {
				t.Fatal(err)
			}
			if err := checkDefinitions(ix.fw); err != nil {
				t.Fatalf("unbroken build: %v", err)
			}
			if !tc.breaks(ix.fw) {
				t.Fatal("the build has nothing of the kind to break")
			}
			if err := checkDefinitions(ix.fw); err == nil {
				t.Fatal("the checker passes a broken framework")
			}
		})
	}
}

// FuzzKeywordPass builds ORP-KW over small random corpora — a vocabulary
// small enough that lists straddle N_u^{1-1/k} node after node, coordinates
// on a coarse grid so that they repeat, k of 2 or 3 — and holds the build to
// the definitions. With the spawn cutoff lowered to 32 objects, a build with
// four goroutines spawns subtrees and writes its postings in parts even at
// these sizes, and must save the sequential build's image byte for byte.
func FuzzKeywordPass(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(6), uint8(0), uint8(3))
	f.Add(int64(2), uint16(511), uint8(20), uint8(1), uint8(0))
	f.Add(int64(3), uint16(64), uint8(2), uint8(0), uint8(15))
	f.Add(int64(4), uint16(200), uint8(10), uint8(1), uint8(7))
	defer func(c int) { parallelCutoff = c }(parallelCutoff)
	parallelCutoff = 32
	f.Fuzz(func(t *testing.T, seed int64, n uint16, vocab, kSel, grid uint8) {
		ds := fuzzCorpus(seed, 1+int(n)%512, 2+int(vocab)%24, 1+int(grid)%16)
		k := 2 + int(kSel)%2
		var images [2]bytes.Buffer
		for i, par := range []int{1, 4} {
			ix, err := BuildORPKW(ds, k, WithParallelism(par), WithoutObs())
			if err != nil {
				t.Fatal(err)
			}
			if err := checkDefinitions(ix.fw); err != nil {
				t.Fatalf("parallelism %d: %v", par, err)
			}
			if err := writeFlat(&images[i], ix); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(images[0].Bytes(), images[1].Bytes()) {
			t.Fatal("the build with four goroutines saves a different image than the sequential build")
		}
	})
}

// fuzzCorpus draws n objects on a side x side grid, every other seed in
// three dimensions, each with 1 to 6 keywords skewed towards the low ids of
// [0, vocab).
func fuzzCorpus(seed int64, n, vocab, side int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	dim := 2 + int(seed&1)
	objs := make([]dataset.Object, n)
	for i := range objs {
		p := make(geom.Point, dim)
		for j := range p {
			p[j] = float64(rng.Intn(side))
		}
		objs[i].Point = p
		for range 1 + rng.Intn(6) {
			objs[i].Doc = append(objs[i].Doc, dataset.Keyword(rng.Intn(1+rng.Intn(vocab))))
		}
	}
	return dataset.MustNew(objs)
}
