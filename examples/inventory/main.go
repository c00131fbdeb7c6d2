// Inventory: a live product catalog built on the dynamic ORP-KW index (the
// logarithmic-method extension) and the string vocabulary — products come
// and go, and queries combine price/stock ranges with tag search at any
// moment. Also demonstrates dataset persistence via the binary codec.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"kwsc"
)

func main() {
	vocab := kwsc.NewVocabulary()
	dyn, err := kwsc.NewDynamicORPKW(2, 2, 32)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	tags := []string{"organic", "vegan", "gluten-free", "local", "seasonal", "frozen", "imported", "bulk"}

	// Seed the catalog: (price, stock) points with tag documents.
	type product struct {
		handle int64
		name   string
	}
	var live []product
	for i := 0; i < 5000; i++ {
		doc := vocab.Doc(tags[rng.Intn(len(tags))], tags[rng.Intn(len(tags))])
		h, err := dyn.Insert(kwsc.Object{
			Point: kwsc.Point{1 + rng.Float64()*99, float64(rng.Intn(500))},
			Doc:   doc,
		})
		if err != nil {
			log.Fatal(err)
		}
		live = append(live, product{handle: h, name: fmt.Sprintf("sku-%05d", i)})
	}
	fmt.Printf("catalog: %d products across %d index parts\n", dyn.Len(), dyn.NumBuckets())

	organic, _ := vocab.Lookup("organic")
	vegan, _ := vocab.Lookup("vegan")
	query := func(label string) int {
		// Organic vegan products under $30 with at least 10 in stock.
		q := kwsc.NewRect([]float64{0, 10}, []float64{30, 1e9})
		ids, st, err := dyn.Collect(q, []kwsc.Keyword{organic, vegan})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d organic+vegan products under $30 in stock (%d work units)\n",
			label, len(ids), st.Ops)
		return len(ids)
	}
	before := query("before churn")

	// Churn: discontinue a third of the catalog, add new arrivals.
	removed := 0
	for i := 0; i < len(live); i += 3 {
		ok, err := dyn.Delete(live[i].handle)
		if err != nil {
			log.Fatal(err)
		}
		if ok {
			removed++
		}
	}
	for i := 0; i < 1000; i++ {
		doc := vocab.Doc("organic", "vegan", tags[rng.Intn(len(tags))])
		if _, err := dyn.Insert(kwsc.Object{
			Point: kwsc.Point{5 + rng.Float64()*20, float64(20 + rng.Intn(100))},
			Doc:   doc,
		}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("churn: removed %d, added 1000; now %d products in %d parts\n",
		removed, dyn.Len(), dyn.NumBuckets())
	after := query("after churn")
	if after < before {
		fmt.Println("note: fewer matches can happen when deletions hit the matching set")
	}

	// Persist a snapshot of the current catalog as a static dataset.
	var objs []kwsc.Object
	if _, err := dyn.Query(kwsc.Universe(2), []kwsc.Keyword{organic, vegan}, kwsc.QueryOpts{},
		func(h int64, o *kwsc.Object) {
			objs = append(objs, kwsc.Object{Point: o.Point, Doc: o.Doc})
		}); err != nil {
		log.Fatal(err)
	}
	snapshot, err := kwsc.NewDataset(objs)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := kwsc.WriteDataset(&buf, snapshot); err != nil {
		log.Fatal(err)
	}
	size := buf.Len()
	restored, err := kwsc.ReadDataset(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("persisted %d matching products in %d bytes; restored %d\n",
		snapshot.Len(), size, restored.Len())
}
