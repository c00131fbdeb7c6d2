package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/spart"
	"kwsc/internal/workload"
)

// TestBuildOutputPinned pins what the builder produces, byte for byte. A
// family with a saved form is pinned by the SHA-256 of its image, and the
// image, once opened, is held to Section 3.2's definitions
// (checkDefinitions); the others (polygon cells, the lifted and
// dimension-reduction indexes) by a digest of their tree shape, their space
// audit and a few hundred answers together with each answer's work counts. A
// change that is meant to move an index re-pins here and says why; a change
// that is not meant to — a faster splitter, a cheaper builder — must leave
// every line alone.
func TestBuildOutputPinned(t *testing.T) {
	zipf2 := workload.Gen(workload.Config{Seed: 201, Objects: 50_000, Dim: 2, Vocab: 500, DocLen: 5})
	planted, _, _ := workload.GenPlanted(workload.Planted{Seed: 202, Objects: 65_536, Dim: 2, K: 3, Out: 64, Partial: 8192})
	heavy, _, _ := workload.GenPlanted(workload.Planted{Seed: 210, Objects: 1 << 15, Dim: 2, K: 3, Out: 64, Partial: 1 << 12})
	zipf3 := workload.Gen(workload.Config{Seed: 203, Objects: 20_000, Dim: 3, Vocab: 200, DocLen: 4})
	small2 := workload.Gen(workload.Config{Seed: 204, Objects: 5000, Dim: 2, Vocab: 120, DocLen: 4})
	small3 := workload.Gen(workload.Config{Seed: 205, Objects: 5000, Dim: 3, Vocab: 60, DocLen: 4})
	grid16 := gridDataset(209, 5000, 16, 120, 4)
	ties := tieDataset(211, 20_000, 80, 4)
	noObs := WithoutObs()

	cases := []struct {
		name   string
		digest func(t *testing.T, h hash.Hash)
		want   string
	}{
		// The ORP-KW images were re-pinned for image version 4: the same tree,
		// its coordinates the dataset's points by rank instead of their ranks,
		// and no cell or rank-table section. Every image was re-pinned for
		// version 5, which stores no column derive computes and list handles
		// as {n, rep} pairs: the same layout in memory, the same answers; and
		// again for version 6, which stores the objects once, by rank, as a
		// checkpoint does, and no coordinate section beside them: the same
		// tree, ranks and answers.
		{"ORPKW/d=2/k=2/image", func(t *testing.T, h hash.Hash) { saveORPKW(t, h, zipf2, 2) },
			"760371e3cabd7c33e224022a35b40e9143fc5458b2e0f44a7abab74bb5356fcb"},
		{"ORPKW/d=2/k=3/image", func(t *testing.T, h hash.Hash) { saveORPKW(t, h, planted, 3) },
			"4a236d18ce570412385e86aaf2ce2bba00d77bc599c818360d61f28905706bc6"},
		// heavy-core's shape at an eighth of its N, built with spare
		// goroutines: subtrees of at least 2 048 objects go to other
		// goroutines, and below the top few levels no keyword is incoming.
		{"ORPKW/heavy-core/par=4/image", func(t *testing.T, h hash.Hash) { saveORPKW(t, h, heavy, 3, WithParallelism(4)) },
			"ce1125eceeac1207a255d9ec98e30b12ae130e0e7ef1276f38602ea58ce3e63c"},
		// Raw coordinates drawn from seven values, -0 and +0 and both
		// infinities among them: the build orders them as rank space does,
		// ties by id, so every split has one pivot, as over distinct ranks.
		// Pinned before the build stopped materialising the rank space.
		{"ORPKW/ties/par=4/image", func(t *testing.T, h hash.Hash) { saveORPKW(t, h, ties, 2, WithParallelism(4)) },
			"2a0e7eccba02247408dba0308a10c41f6bbf1939944359dd3693ff94d47e25e5"},
		{"ORPKW/d=3/k=2/image", func(t *testing.T, h hash.Hash) { saveORPKW(t, h, zipf3, 2) },
			"2df5a665dc9dc6395117af31a46a0672bff028699e2d6eabf40bff62a0fe7129"},
		// Was the Box splitter's image; re-pinned as KD, which took over its
		// families, on the same raw coordinates. Both KD images were re-pinned
		// again for version 4, which drops the cell section.
		{"LCKW/KD/small2/image", func(t *testing.T, h hash.Hash) {
			ix := pinnedSPKW(t, small2, &spart.KD{Dim: 2})
			if err := writeFlat(h, ix); err != nil {
				t.Fatal(err)
			}
			checkOpenedDefinitions(t, ix)
		}, "d18ef0acaec079e727e7ace7bd1ec2c8325479f5a6481cccf32b6f26c83b8182"},
		// Raw coordinates on a 16x16 grid: every kd median sits in a tie
		// block, which rank space never produces. Re-pinned when a split over
		// a tie block cut at its edge instead of making it the pivot set.
		{"LCKW/KD/grid16/image", func(t *testing.T, h hash.Hash) {
			ix := pinnedSPKW(t, grid16, &spart.KD{Dim: 2})
			if err := writeFlat(h, ix); err != nil {
				t.Fatal(err)
			}
			checkOpenedDefinitions(t, ix)
		}, "ab3b6ad58087bcbf65fb31fe068cff051f551e40a3487e5dded86f9c87727998"},
		{"LCKW/Willard2D/digest", func(t *testing.T, h hash.Hash) {
			digestSPKW(t, h, pinnedSPKW(t, small2, &spart.Willard2D{}))
		}, "9801593b7ab5bfc807707be623ff1cbe484e4c871130e375b5c29b487c34f9e9"},
		{"LCKW/Grid2D/digest", func(t *testing.T, h hash.Hash) {
			digestSPKW(t, h, pinnedSPKW(t, small2, &spart.Grid2D{G: 4}))
		}, "257fab50c849ffdeafaa1dd5d4584f97d6c9e42677853e1d48dd81a24c36d20f"},
		// Re-pinned when its lifted 3-D substrate moved from Box to KD, and
		// again when kd nodes began to relate by their tight boxes: the audit
		// counts a box's 2·pdim floats where it counted a cell's interface,
		// and a box decides some nodes a cell left crossing, so node and work
		// counts fall. The answers are unchanged.
		{"SRPKW/digest", func(t *testing.T, h hash.Hash) {
			ix, err := BuildSRPKW(small2, 2, noObs)
			if err != nil {
				t.Fatal(err)
			}
			putInts(h, spaceInts(ix.Space())...)
			rng := rand.New(rand.NewSource(206))
			for q := 0; q < 300; q++ {
				ball := geom.NewSphere(geom.Point{rng.Float64(), rng.Float64()}, 0.05+0.3*rng.Float64())
				ids, st, err := ix.CollectInto(ball, workload.RandKeywords(rng, 120, 2), QueryOpts{}, nil)
				putAnswer(t, h, ids, st, err)
			}
		}, "fe1834a6f4c8d06c36df406a82f3b5384e0b1350ffeeb38bd3520952197e3632"},
		// Re-pinned when the space audit began to count the rank space's
		// directories (AuxWords); the tree and every answer are unchanged.
		// Re-pinned again, as SRPKW was, when its secondary kd trees began to
		// relate by tight boxes. Re-pinned a third time when the index began
		// to query in the points' own coordinates: the audit lost the rank
		// tables, their directories and the rank copies of the final two
		// axes (AuxWords 34 039 -> 0); the tree, every answer and every work
		// count are unchanged.
		{"ORPKWHigh/d=3/digest", func(t *testing.T, h hash.Hash) {
			ix, err := BuildORPKWHigh(small3, 2, noObs)
			if err != nil {
				t.Fatal(err)
			}
			putInts(h, spaceInts(ix.Space())...)
			putInts(h, int64(ix.Levels()), ix.MaxFanout())
			rng := rand.New(rand.NewSource(207))
			for q := 0; q < 300; q++ {
				ids, st, err := ix.CollectInto(workload.RandRect(rng, 3, 0.2+0.6*rng.Float64()), workload.RandKeywords(rng, 60, 2), QueryOpts{}, nil)
				putAnswer(t, h, ids, st, err)
			}
		}, "c130bf6e8957e53f911ee07c43b19d9a69a05a26a184f418db8339d66aa809a5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			tc.digest(t, h)
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Fatalf("digest %s, pinned %s: the builder's output moved", got, tc.want)
			}
		})
	}
}

func saveORPKW(t *testing.T, h hash.Hash, ds *dataset.Dataset, k int, opts ...BuildOption) {
	t.Helper()
	ix, err := BuildORPKW(ds, k, append(opts, WithoutObs())...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeFlat(&buf, ix); err != nil {
		t.Fatal(err)
	}
	h.Write(buf.Bytes())
	checkOpenedDefinitions(t, ix)
}

// gridDataset places n objects on a side x side grid of integer points, each
// with a document of docLen keywords drawn from [0, vocab).
func gridDataset(seed int64, n, side, vocab, docLen int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]dataset.Object, n)
	for i := range objs {
		objs[i].Point = geom.Point{float64(rng.Intn(side)), float64(rng.Intn(side))}
		for range docLen {
			objs[i].Doc = append(objs[i].Doc, dataset.Keyword(rng.Intn(vocab)))
		}
	}
	return dataset.MustNew(objs)
}

// tieDataset places n objects in the plane with each coordinate one of
// -Inf, -1, -0, +0, 1, 2 and +Inf, each with a document of docLen keywords
// drawn from [0, vocab).
func tieDataset(seed int64, n, vocab, docLen int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	vals := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 1, 2, math.Inf(1)}
	objs := make([]dataset.Object, n)
	for i := range objs {
		objs[i].Point = geom.Point{vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]}
		for range docLen {
			objs[i].Doc = append(objs[i].Doc, dataset.Keyword(rng.Intn(vocab)))
		}
	}
	return dataset.MustNew(objs)
}

func pinnedSPKW(t *testing.T, ds *dataset.Dataset, split spart.Splitter) *SPKW {
	t.Helper()
	ix, err := BuildSPKW(ds, SPKWConfig{K: 2, Splitter: split}, WithoutObs())
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// digestSPKW feeds the tree's shape, its space audit and 300 LC-KW answers.
func digestSPKW(t *testing.T, h hash.Hash, ix *SPKW) {
	t.Helper()
	fw := ix.Framework()
	putInts(h, int64(fw.NumNodes()), int64(fw.Height()), int64(fw.MaxPivots()))
	putInts(h, spaceInts(ix.Space())...)
	rng := rand.New(rand.NewSource(208))
	for q := 0; q < 300; q++ {
		hs := workload.RandHalfspaces(rng, 2, 2, 0.2+0.6*rng.Float64())
		ids, st, err := ix.CollectInto(hs, workload.RandKeywords(rng, 120, 2), QueryOpts{}, nil)
		putAnswer(t, h, ids, st, err)
	}
}

func spaceInts(s SpaceBreakdown) []int64 {
	return []int64{s.NodeWords, s.PivotWords, s.LargeWords, s.MatWords, s.TensorBits, s.AuxWords}
}

// putAnswer feeds one answer in the order it was reported, then its counts.
func putAnswer(t *testing.T, h hash.Hash, ids []int32, st QueryStats, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	putInts(h, int64(len(ids)))
	for _, id := range ids {
		putInts(h, int64(id))
	}
	putInts(h, int64(st.NodesVisited), int64(st.CoveredNodes), int64(st.CrossingNodes),
		st.PivotChecks, st.MatScanned, int64(st.Reported), st.Ops, int64(st.Type1Nodes), int64(st.Type2Nodes))
}

func putInts(h hash.Hash, vs ...int64) {
	for _, v := range vs {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v)))
	}
}
