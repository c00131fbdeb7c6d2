// Geosearch: nearest-neighbor and spherical keyword search over a city grid
// — the "find the hotel nearest to an address, among all hotels whose
// features include ..." example of Section 1.1, exercising three indexes:
//
//   - L∞NN-KW (Corollary 4): t nearest under L∞,
//   - L2NN-KW (Corollary 7): t nearest under Euclidean distance on the
//     integer street grid,
//   - SRP-KW (Corollary 6): everything within a radius.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"kwsc"
)

const (
	kwPool kwsc.Keyword = iota
	kwFreeParking
	kwPetFriendly
	numAmenities
)

func main() {
	rng := rand.New(rand.NewSource(13))
	const n = 30000
	const gridSide = 1 << 12 // city blocks

	objs := make([]kwsc.Object, n)
	for i := range objs {
		doc := []kwsc.Keyword{numAmenities + kwsc.Keyword(rng.Intn(60))}
		for w := kwsc.Keyword(0); w < numAmenities; w++ {
			if rng.Float64() < 0.15 {
				doc = append(doc, w)
			}
		}
		objs[i] = kwsc.Object{
			Point: kwsc.Point{float64(rng.Intn(gridSide)), float64(rng.Intn(gridSide))},
			Doc:   doc,
		}
	}
	ds, err := kwsc.NewDataset(objs)
	if err != nil {
		log.Fatal(err)
	}
	addr := kwsc.Point{float64(gridSide / 2), float64(gridSide / 2)}
	kws := []kwsc.Keyword{kwPool, kwPetFriendly}

	// --- t nearest under L∞. ----------------------------------------------
	linf, err := kwsc.NewLinfNN(ds, 2)
	if err != nil {
		log.Fatal(err)
	}
	res, ns, err := linf.Query(addr, 5, kws, kwsc.QueryOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("5 nearest (L∞) hotels with pool + pet-friendly (%d range probes):\n", ns.Probes)
	for _, r := range res {
		p := ds.Point(r.ID)
		fmt.Printf("  hotel %-6d at (%4.0f,%4.0f)  L∞ distance %4.0f\n", r.ID, p[0], p[1], r.Dist)
	}

	// --- t nearest under L2 on the integer grid. ----------------------------
	l2, err := kwsc.NewL2NN(ds, 2)
	if err != nil {
		log.Fatal(err)
	}
	res2, ns2, err := l2.Query(addr, 5, kws, kwsc.QueryOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("5 nearest (L2) hotels (%d sphere probes):\n", ns2.Probes)
	for _, r := range res2 {
		p := ds.Point(r.ID)
		fmt.Printf("  hotel %-6d at (%4.0f,%4.0f)  L2 distance %6.1f\n", r.ID, p[0], p[1], r.Dist)
	}

	// --- Everything within 150 blocks (SRP-KW). ------------------------------
	srp, err := kwsc.NewSRPKW(ds, 2)
	if err != nil {
		log.Fatal(err)
	}
	ball := kwsc.NewSphere(addr, 150)
	ids, st, err := srp.CollectInto(ball, kws, kwsc.QueryOpts{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hotels within 150 blocks: %d (%d work units)\n", len(ids), st.Ops)

	// Cross-check: the L2 top-5 must be the 5 closest sphere members when
	// the ball is large enough.
	if len(ids) >= 5 {
		for _, r := range res2 {
			if r.Dist > 150 {
				break
			}
			found := false
			for _, id := range ids {
				if id == r.ID {
					found = true
					break
				}
			}
			if !found {
				log.Fatalf("L2NN result %d missing from the sphere report", r.ID)
			}
		}
		fmt.Println("L2NN results confirmed inside the sphere report")
	}
}
