// Quickstart: index a tiny hotel catalog and run the paper's introductory
// query — keyword search with a structured range condition (condition C1 of
// Section 1: price in [100, 200] and rating >= 8, with documents containing
// 'pool', 'free-parking' and 'pet-friendly').
package main

import (
	"fmt"
	"log"
	"math"

	"kwsc"
)

// The keyword vocabulary of this toy catalog.
const (
	kwPool kwsc.Keyword = iota
	kwFreeParking
	kwPetFriendly
	kwSpa
	kwBeach
	kwBusiness
)

func main() {
	// Each object is a point (price, rating) plus a document of tags.
	hotels := []struct {
		name   string
		price  float64
		rating float64
		tags   []kwsc.Keyword
	}{
		{"Harbor Lights", 120, 8.7, []kwsc.Keyword{kwPool, kwFreeParking, kwPetFriendly}},
		{"Grand Meridian", 310, 9.4, []kwsc.Keyword{kwPool, kwSpa, kwBusiness}},
		{"Budget Inn", 60, 6.1, []kwsc.Keyword{kwFreeParking}},
		{"Seaside Paws", 150, 8.2, []kwsc.Keyword{kwPool, kwFreeParking, kwPetFriendly, kwBeach}},
		{"Downtown Suites", 180, 7.5, []kwsc.Keyword{kwPool, kwFreeParking, kwPetFriendly}},
		{"The Conservatory", 195, 9.1, []kwsc.Keyword{kwPool, kwPetFriendly, kwFreeParking, kwSpa}},
	}
	objs := make([]kwsc.Object, len(hotels))
	for i, h := range hotels {
		objs[i] = kwsc.Object{
			Point: kwsc.Point{h.price, h.rating},
			Doc:   h.tags,
		}
	}
	ds, err := kwsc.NewDataset(objs)
	if err != nil {
		log.Fatal(err)
	}

	// Build the Theorem 1 index for queries carrying k=3 keywords.
	ix, err := kwsc.NewORPKW(ds, 3)
	if err != nil {
		log.Fatal(err)
	}

	// Condition C1: price in [100, 200] and rating >= 8 ...
	q := kwsc.NewRect([]float64{100, 8}, []float64{200, math.Inf(1)})
	// ... and the document must contain all three keywords.
	kws := []kwsc.Keyword{kwPool, kwFreeParking, kwPetFriendly}

	ids, st, err := ix.CollectInto(q, kws, kwsc.QueryOpts{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("C1 query: price in [100,200], rating >= 8, tags {pool, free-parking, pet-friendly}\n")
	for _, id := range ids {
		h := hotels[id]
		fmt.Printf("  %-18s $%.0f  rating %.1f\n", h.name, h.price, h.rating)
	}
	fmt.Printf("(%d results; %d index nodes visited, %d work units)\n",
		len(ids), st.NodesVisited, st.Ops)
}
