// Temporal: keyword search over versioned documents (the d=1 RR-KW setting
// the paper attributes to Anand et al. [7]): each document has a lifespan
// interval, and a query asks for the documents alive at some time during a
// window that contain all the query keywords. RR-KW maps every interval
// [a, b] to the corner point (a, b), turning interval intersection into a
// 2-dimensional ORP-KW query (Corollary 3 with d = 1).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"kwsc"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	day := func(d int) float64 { return float64(d) } // days since base

	// A corpus of wiki-style revisions: each revision is alive from its
	// creation until superseded, and carries term ids.
	const revisions = 50000
	const vocab = 400
	docs := make([]kwsc.RectObject, revisions)
	for i := range docs {
		start := rng.Intn(1400)
		life := 1 + rng.Intn(200)
		terms := make([]kwsc.Keyword, 3+rng.Intn(6))
		for j := range terms {
			// Zipf-ish: low term ids are common.
			terms[j] = kwsc.Keyword(rng.Intn(1 + rng.Intn(vocab)))
		}
		docs[i] = kwsc.RectObject{
			Rect: kwsc.NewRect([]float64{day(start)}, []float64{day(start + life)}),
			Doc:  terms,
		}
	}
	ix, err := kwsc.NewRRKW(docs, 2)
	if err != nil {
		log.Fatal(err)
	}

	// Query: revisions alive at any point of March 2021 mentioning both
	// term 3 and term 7.
	winStart := int(time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC).Sub(base).Hours() / 24)
	window := kwsc.NewRect([]float64{day(winStart)}, []float64{day(winStart + 30)})
	kws := []kwsc.Keyword{3, 7}

	ids, st, err := ix.CollectInto(window, kws, kwsc.QueryOpts{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("revisions alive in March 2021 mentioning terms 3 and 7: %d\n", len(ids))
	fmt.Printf("index work: %d units over %d visited nodes\n", st.Ops, st.NodesVisited)
	for i, id := range ids {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(ids)-5)
			break
		}
		r := ix.Rect(id)
		fmt.Printf("  revision %-6d alive day %4.0f .. %4.0f\n", id, r.Lo[0], r.Hi[0])
	}

	// Verify against a linear scan.
	verify := 0
	for i, d := range docs {
		alive := d.Rect.Hi[0] >= window.Lo[0] && d.Rect.Lo[0] <= window.Hi[0]
		if alive && hasAll(d.Doc, kws) {
			verify++
			_ = i
		}
	}
	if verify != len(ids) {
		log.Fatalf("index reported %d, linear scan found %d", len(ids), verify)
	}
	fmt.Printf("verified against a full scan of %d revisions\n", revisions)
}

func hasAll(doc, ws []kwsc.Keyword) bool {
	for _, w := range ws {
		found := false
		for _, d := range doc {
			if d == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
