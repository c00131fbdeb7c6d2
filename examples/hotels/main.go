// Hotels: the full introductory scenario of the paper on a generated
// catalog — both structured conditions of Section 1 side by side:
//
//	C1  price in [$100,$200] and rating >= 8            (ORP-KW, Theorem 1)
//	C2  c1*price + c2*(10-rating) <= c3                 (LC-KW, Theorem 5)
//
// each combined with the keyword filter {pool, free-parking, pet-friendly},
// and compared against the two naive baselines the paper criticizes.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"kwsc"
)

const (
	kwPool kwsc.Keyword = iota
	kwFreeParking
	kwPetFriendly
	numQueryKws
	vocabSize = 64
)

func main() {
	rng := rand.New(rand.NewSource(7))
	const n = 20000
	objs := make([]kwsc.Object, n)
	for i := range objs {
		price := 40 + rng.Float64()*360 // $40 .. $400
		rating := 3 + rng.Float64()*7   // 3 .. 10
		doc := []kwsc.Keyword{numQueryKws + kwsc.Keyword(rng.Intn(vocabSize))}
		// Roughly 8% of hotels carry each amenity tag.
		for w := kwsc.Keyword(0); w < numQueryKws; w++ {
			if rng.Float64() < 0.08 {
				doc = append(doc, w)
			}
		}
		objs[i] = kwsc.Object{Point: kwsc.Point{price, rating}, Doc: doc}
	}
	ds, err := kwsc.NewDataset(objs)
	if err != nil {
		log.Fatal(err)
	}
	kws := []kwsc.Keyword{kwPool, kwFreeParking, kwPetFriendly}

	// --- C1: separate range constraints per attribute (ORP-KW). ----------
	orp, err := kwsc.NewORPKW(ds, 3)
	if err != nil {
		log.Fatal(err)
	}
	c1 := kwsc.NewRect([]float64{100, 8}, []float64{200, math.Inf(1)})
	ids, st, err := orp.CollectInto(c1, kws, kwsc.QueryOpts{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("C1 (range): %d hotels, %d work units\n", len(ids), st.Ops)

	// --- C2: a joint linear constraint (LC-KW). ---------------------------
	// 1*price + 40*(10-rating) <= 260, i.e. price + 400 - 40*rating <= 260.
	lc, err := kwsc.NewLCKW(ds, kwsc.LCKWConfig{K: 3})
	if err != nil {
		log.Fatal(err)
	}
	c2 := []kwsc.Halfspace{{Coef: []float64{1, -40}, Bound: -140}}
	var lcIDs []int32
	stLC, err := lc.Query(c2, kws, kwsc.QueryOpts{}, func(id int32) {
		lcIDs = append(lcIDs, id)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("C2 (linear): %d hotels, %d work units\n", len(lcIDs), stLC.Ops)

	// --- The two naive baselines on C1. -----------------------------------
	inv, err := kwsc.NewInvertedIndex(ds)
	if err != nil {
		log.Fatal(err)
	}
	kwOnly := inv.KeywordsOnly(c1, kws)
	fmt.Printf("keywords-only baseline: %d results after scanning %d posting entries\n",
		len(kwOnly), inv.ScanCost(kws))
	so, err := kwsc.NewStructuredOnly(ds)
	if err != nil {
		log.Fatal(err)
	}
	soIDs, candidates, _ := so.Query(c1, kws)
	fmt.Printf("structured-only baseline: %d results after filtering %d candidates\n",
		len(soIDs), candidates)

	if len(kwOnly) != len(ids) || len(soIDs) != len(ids) {
		log.Fatalf("baseline disagreement: %d vs %d vs %d", len(ids), len(kwOnly), len(soIDs))
	}
	fmt.Printf("\nall three methods agree; the index did %d work units vs %d (keywords-only)\n",
		st.Ops, inv.ScanCost(kws))
	fmt.Printf("and %d (structured-only) — the Section 1 motivation, measured\n", candidates)
}
