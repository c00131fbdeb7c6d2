package kwsc_test

import (
	"slices"
	"testing"

	"kwsc"
	"kwsc/internal/workload"
)

// collectIntoCase checks Index's CollectInto contract on one family: the
// answer written into a buffer that already holds stale ids equals the
// answer into nil — same ids, same order, nothing appended after the stale
// prefix — and, when the buffer is large enough, lands in its storage.
func collectIntoCase[Q any](ix kwsc.Index[Q], q Q, ws []kwsc.Keyword, opts kwsc.QueryOpts) func(*testing.T) {
	return func(t *testing.T) {
		want, _, err := ix.CollectInto(q, ws, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatal("fixture answers nothing: the contract is untested")
		}
		for _, capacity := range []int{len(want) + 8, 1} {
			buf := make([]int32, 3, max(capacity, 3))
			buf[0], buf[1], buf[2] = -1, -2, -3
			got, _, err := ix.CollectInto(q, ws, opts, buf)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("cap %d: CollectInto over a non-empty buf = %v, want %v", cap(buf), got, want)
			}
			if cap(buf) >= len(want) && &got[0] != &buf[0] {
				t.Fatalf("cap %d: the answer does not alias buf", cap(buf))
			}
		}
	}
}

// TestCollectIntoOverwritesBuf holds every Index family, and Degraded's
// baseline fallback, to the one CollectInto contract.
func TestCollectIntoOverwritesBuf(t *testing.T) {
	ds, _ := buildCatalog(t, 800, 31)
	ds3 := workload.Gen(workload.Config{Seed: 32, Objects: 800, Dim: 3, Vocab: 6, DocLen: 4})
	ws := []kwsc.Keyword{0, 1}
	box := kwsc.NewRect([]float64{10, 1}, []float64{90, 9})
	none := kwsc.QueryOpts{}

	orp, err := kwsc.NewORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	high, err := kwsc.NewORPKWHigh(ds3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rects := make([]kwsc.RectObject, ds.Len())
	for i := range rects {
		p := ds.Point(int32(i))
		rects[i] = kwsc.RectObject{Rect: kwsc.NewRect([]float64{p[0]}, []float64{p[0] + 1}), Doc: ds.Doc(int32(i))}
	}
	rr, err := kwsc.NewRRKW(rects, 2)
	if err != nil {
		t.Fatal(err)
	}
	srp, err := kwsc.NewSRPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := kwsc.NewLCKW(ds, kwsc.LCKWConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	deg, err := kwsc.NewDegraded(ds, 2)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"ORPKW", collectIntoCase(orp, box, ws, none)},
		{"ORPKWHigh", collectIntoCase(high, kwsc.Universe(3), ws, none)},
		{"RRKW", collectIntoCase(rr, kwsc.NewRect([]float64{20}, []float64{70}), ws, none)},
		{"SRPKW", collectIntoCase(srp, kwsc.NewSphere(kwsc.Point{50, 5}, 30), ws, none)},
		{"LCKW", collectIntoCase(lc, []kwsc.Halfspace{{Coef: []float64{1, 5}, Bound: 80}}, ws, none)},
		{"Degraded", collectIntoCase(deg, box, ws, none)},
		{"Degraded/fallback", collectIntoCase(deg, box, ws, kwsc.QueryOpts{Policy: kwsc.ExecPolicy{NodeBudget: 1}})},
	} {
		t.Run(c.name, c.run)
	}
	if deg.FallbackCount() == 0 {
		t.Fatal("the fallback row never fell back")
	}
}
