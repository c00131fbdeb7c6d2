package core

import (
	"errors"
	"sync"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/workload"
)

// Shared fuzz fixtures: one index per family, built once (index construction
// dominates fuzz throughput otherwise).
var (
	fuzzOnce sync.Once
	fuzzDS   *dataset.Dataset
	fuzzLow  *ORPKW
	fuzzHiDS *dataset.Dataset
	fuzzHigh *ORPKWHigh
	fuzzDyn  *DynamicORPKW
)

func fuzzFixtures(t testing.TB) {
	fuzzOnce.Do(func() {
		fuzzDS = workload.Gen(workload.Config{Seed: 40, Objects: 1200, Dim: 2, Vocab: 12, DocLen: 4})
		fuzzHiDS = workload.Gen(workload.Config{Seed: 41, Objects: 800, Dim: 3, Vocab: 12, DocLen: 4})
		var err error
		if fuzzLow, err = BuildORPKW(fuzzDS, 2); err != nil {
			t.Fatal(err)
		}
		if fuzzHigh, err = BuildORPKWHigh(fuzzHiDS, 2); err != nil {
			t.Fatal(err)
		}
		// fuzzDS inserted in order (handle i is object i) into buckets and a
		// buffer, with every fifth handle tombstoned.
		if fuzzDyn, err = NewDynamicORPKW(2, 2, 64); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < fuzzDS.Len(); i++ {
			if _, err := fuzzDyn.Insert(*fuzzDS.Object(int32(i))); err != nil {
				t.Fatal(err)
			}
		}
		for h := int64(0); h < int64(fuzzDS.Len()); h += 5 {
			if _, err := fuzzDyn.Delete(h); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FuzzExecPolicy drives random (family, rectangle, keywords, budget, cap)
// tuples through the policy machinery and asserts the resilience invariants:
//
//   - a policy-stopped answer is a prefix of the unbounded answer;
//   - the only error is ErrBudget, and it comes with Truncated set;
//   - an answer without Truncated is the whole unbounded answer;
//   - Limit truncates silently and never yields more than the cap;
//   - an unconstrained rerun of the same query is untouched by the policy
//     machinery having run before it (no pooled-context contamination).
func FuzzExecPolicy(f *testing.F) {
	f.Add(uint8(0), uint16(3), uint16(0), int64(0), int64(1), int64(0), int64(1))
	f.Add(uint8(1), uint16(9), uint16(5), int64(200), int64(0), int64(-2), int64(3))
	f.Add(uint8(0), uint16(50), uint16(2), int64(1), int64(4), int64(5), int64(6))
	f.Add(uint8(0), uint16(1000), uint16(7), int64(64), int64(0), int64(0), int64(0))
	f.Add(uint8(2), uint16(40), uint16(2), int64(0), int64(0), int64(39), int64(39))
	f.Fuzz(func(t *testing.T, family uint8, budget16 uint16, cap16 uint16, ax, ay, bx, by int64) {
		fuzzFixtures(t)
		budget := int64(budget16)
		maxRes := int(cap16 % 64)
		// Rectangle from the fuzzed corner coordinates, scaled into the unit
		// square the generators populate, normalized so lo <= hi.
		coord := func(v int64) float64 { return float64(((v%40)+40)%40) / 40.0 }
		lo := []float64{coord(ax), coord(ay)}
		hi := []float64{coord(bx), coord(by)}
		for j := range lo {
			if lo[j] > hi[j] {
				lo[j], hi[j] = hi[j], lo[j]
			}
		}
		q := geom.NewRect(lo, hi)
		ws := []dataset.Keyword{1, 2}

		type collector func(q *geom.Rect, ws []dataset.Keyword, opts QueryOpts) ([]int32, QueryStats, error)
		var collect collector
		switch family % 3 {
		case 0:
			collect = func(q *geom.Rect, ws []dataset.Keyword, opts QueryOpts) ([]int32, QueryStats, error) {
				return fuzzLow.CollectInto(q, ws, opts, nil)
			}
		case 1:
			q3 := geom.NewRect(append(lo, 0), append(hi, 1))
			collect = func(_ *geom.Rect, ws []dataset.Keyword, opts QueryOpts) ([]int32, QueryStats, error) {
				return fuzzHigh.CollectInto(q3, ws, opts, nil)
			}
		case 2:
			collect = func(q *geom.Rect, ws []dataset.Keyword, opts QueryOpts) ([]int32, QueryStats, error) {
				var out []int32
				st, err := fuzzDyn.Query(q, ws, opts, func(h int64, _ *dataset.Object) { out = append(out, int32(h)) })
				return out, st, err
			}
		}

		full, _, err := collect(q, ws, QueryOpts{})
		if err != nil {
			t.Fatalf("unbounded query failed: %v", err)
		}

		opts := QueryOpts{Limit: maxRes, Policy: ExecPolicy{NodeBudget: budget}}
		got, st, err := collect(q, ws, opts)

		if err != nil && (!errors.Is(err, ErrBudget) || !st.Truncated) {
			t.Fatalf("opts %+v: error %v with Truncated=%v, want ErrBudget with Truncated", opts, err, st.Truncated)
		}
		if !st.Truncated && len(got) != len(full) {
			t.Fatalf("opts %+v: %d of %d results without Truncated", opts, len(got), len(full))
		}
		if maxRes > 0 && len(got) > maxRes {
			t.Fatalf("Limit=%d but %d results returned", maxRes, len(got))
		}
		if len(got) > len(full) {
			t.Fatalf("policy run returned %d results, unbounded returned %d", len(got), len(full))
		}
		for i := range got {
			if got[i] != full[i] {
				t.Fatalf("result %d: policy run %d, unbounded %d: not a prefix", i, got[i], full[i])
			}
		}

		// The policy machinery leaves no residue in the pooled contexts.
		again, ast, err := collect(q, ws, QueryOpts{})
		if err != nil {
			t.Fatalf("rerun failed: %v", err)
		}
		if ast.Truncated {
			t.Fatalf("rerun stats contaminated: %+v", ast)
		}
		if len(again) != len(full) {
			t.Fatalf("rerun returned %d results, want %d", len(again), len(full))
		}
	})
}
