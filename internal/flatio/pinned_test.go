package flatio

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"kwsc/internal/core"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/spart"
	"kwsc/internal/workload"
)

// TestBuildOutputPinned pins what the builder produces, byte for byte. A
// family with a saved form is pinned by the SHA-256 of its image; the others
// (polygon cells, the lifted and dimension-reduction indexes) by a digest of
// their tree shape, their space audit and a few hundred answers together with
// each answer's work counts. A change that is meant to move an index re-pins
// here and says why; a change that is not meant to — a faster splitter, a
// cheaper builder — must leave every line alone.
func TestBuildOutputPinned(t *testing.T) {
	zipf2 := workload.Gen(workload.Config{Seed: 201, Objects: 50_000, Dim: 2, Vocab: 500, DocLen: 5})
	planted, _, _ := workload.GenPlanted(workload.Planted{Seed: 202, Objects: 65_536, Dim: 2, K: 3, Out: 64, Partial: 8192})
	zipf3 := workload.Gen(workload.Config{Seed: 203, Objects: 20_000, Dim: 3, Vocab: 200, DocLen: 4})
	small2 := workload.Gen(workload.Config{Seed: 204, Objects: 5000, Dim: 2, Vocab: 120, DocLen: 4})
	small3 := workload.Gen(workload.Config{Seed: 205, Objects: 5000, Dim: 3, Vocab: 60, DocLen: 4})
	grid16 := gridDataset(209, 5000, 16, 120, 4)
	noObs := core.BuildOpts{NoObs: true}

	cases := []struct {
		name   string
		digest func(t *testing.T, h hash.Hash)
		want   string
	}{
		{"ORPKW/d=2/k=2/image", func(t *testing.T, h hash.Hash) { saveORPKW(t, h, zipf2, 2) },
			"79fa4b63bd57a26104c947749918b5dd8f2ea2dfd4ee63d5e130c4d138be04d5"},
		{"ORPKW/d=2/k=3/image", func(t *testing.T, h hash.Hash) { saveORPKW(t, h, planted, 3) },
			"526158e40f6d31e61bc9097ee4790beab6e7d13b413125fca0f7927f7d8ee443"},
		{"ORPKW/d=3/k=2/image", func(t *testing.T, h hash.Hash) { saveORPKW(t, h, zipf3, 2) },
			"64013860840f9f5a44547b57026dc3f82c955e82e6174ce54de6b8a03990d40e"},
		// Was the Box splitter's image; re-pinned as KD, which took over its
		// families, on the same raw coordinates.
		{"LCKW/KD/small2/image", func(t *testing.T, h hash.Hash) {
			ix := buildSPKW(t, small2, &spart.KD{Dim: 2})
			if err := SaveSPKW(h, ix); err != nil {
				t.Fatal(err)
			}
		}, "e878f6fac5b04af30ba43a664bd4db987ee636cfd4982cdf84b1761de0e31a69"},
		// Raw coordinates on a 16x16 grid: every kd median sits in a tie
		// block, which rank space never produces. Re-pinned when a split over
		// a tie block cut at its edge instead of making it the pivot set.
		{"LCKW/KD/grid16/image", func(t *testing.T, h hash.Hash) {
			ix := buildSPKW(t, grid16, &spart.KD{Dim: 2})
			if err := SaveSPKW(h, ix); err != nil {
				t.Fatal(err)
			}
		}, "1c59837a960d25bc7db2c09c969d0a65d0d792d8bc7d7846b73a6f638e76a0ce"},
		{"LCKW/Willard2D/digest", func(t *testing.T, h hash.Hash) {
			digestSPKW(t, h, buildSPKW(t, small2, &spart.Willard2D{}))
		}, "9801593b7ab5bfc807707be623ff1cbe484e4c871130e375b5c29b487c34f9e9"},
		{"LCKW/Grid2D/digest", func(t *testing.T, h hash.Hash) {
			digestSPKW(t, h, buildSPKW(t, small2, &spart.Grid2D{G: 4}))
		}, "257fab50c849ffdeafaa1dd5d4584f97d6c9e42677853e1d48dd81a24c36d20f"},
		// Re-pinned when its lifted 3-D substrate moved from Box to KD.
		{"SRPKW/digest", func(t *testing.T, h hash.Hash) {
			ix, err := core.BuildSRPKWWith(small2, 2, noObs)
			if err != nil {
				t.Fatal(err)
			}
			putInts(h, spaceInts(ix.Space())...)
			rng := rand.New(rand.NewSource(206))
			for q := 0; q < 300; q++ {
				ball := geom.NewSphere(geom.Point{rng.Float64(), rng.Float64()}, 0.05+0.3*rng.Float64())
				ids, st, err := ix.Collect(ball, workload.RandKeywords(rng, 120, 2), core.QueryOpts{})
				putAnswer(t, h, ids, st, err)
			}
		}, "b81507e5422a242f10fd83efc4e3dd8aaf6d0b1f9c837397bb75c3e771e39f21"},
		// Re-pinned when the space audit began to count the rank space's
		// directories (AuxWords); the tree and every answer are unchanged.
		{"ORPKWHigh/d=3/digest", func(t *testing.T, h hash.Hash) {
			ix, err := core.BuildORPKWHighWith(small3, 2, noObs)
			if err != nil {
				t.Fatal(err)
			}
			putInts(h, spaceInts(ix.Space())...)
			putInts(h, int64(ix.Levels()), ix.MaxFanout())
			rng := rand.New(rand.NewSource(207))
			for q := 0; q < 300; q++ {
				ids, st, err := ix.Collect(workload.RandRect(rng, 3, 0.2+0.6*rng.Float64()), workload.RandKeywords(rng, 60, 2), core.QueryOpts{})
				putAnswer(t, h, ids, st, err)
			}
		}, "8b1b54b6a72b7f8ba31c29e7a7a4ded815a2a81de338695cdcf30ef08633b579"},
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

func saveORPKW(t *testing.T, h hash.Hash, ds *dataset.Dataset, k int) {
	t.Helper()
	ix, err := core.BuildORPKW(ds, k, core.WithoutObs())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveORPKW(&buf, ix); err != nil {
		t.Fatal(err)
	}
	h.Write(buf.Bytes())
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

func buildSPKW(t *testing.T, ds *dataset.Dataset, split spart.Splitter) *core.SPKW {
	t.Helper()
	ix, err := core.BuildSPKW(ds, core.SPKWConfig{K: 2, Splitter: split, Build: core.BuildOpts{NoObs: true}})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// digestSPKW feeds the tree's shape, its space audit and 300 LC-KW answers.
func digestSPKW(t *testing.T, h hash.Hash, ix *core.SPKW) {
	t.Helper()
	fw := ix.Framework()
	putInts(h, int64(fw.NumNodes()), int64(fw.Height()), int64(fw.MaxPivots()))
	putInts(h, spaceInts(ix.Space())...)
	rng := rand.New(rand.NewSource(208))
	for q := 0; q < 300; q++ {
		hs := workload.RandHalfspaces(rng, 2, 2, 0.2+0.6*rng.Float64())
		ids, st, err := ix.CollectConstraints(hs, workload.RandKeywords(rng, 120, 2), core.QueryOpts{})
		putAnswer(t, h, ids, st, err)
	}
}

func spaceInts(s core.SpaceBreakdown) []int64 {
	return []int64{s.NodeWords, s.PivotWords, s.LargeWords, s.MatWords, s.TensorBits, s.AuxWords}
}

// putAnswer feeds one answer in the order it was reported, then its counts.
func putAnswer(t *testing.T, h hash.Hash, ids []int32, st core.QueryStats, err error) {
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
