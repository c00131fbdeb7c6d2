package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"kwsc"
)

// gatherLists runs the merge-into-response routine over per-leg id lists, the
// way Query does after a scatter.
func gatherLists(t *testing.T, lists [][]int64, limit int) *kwsc.QueryResponse {
	t.Helper()
	st := &scatterState{replies: make([]legResult, len(lists)), heads: make([][]int64, 0, len(lists))}
	for i, l := range lists {
		st.replies[i].ids = l
	}
	resp, err := gather(st, limit)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestGatherMergeBasic(t *testing.T) {
	cases := []struct {
		name  string
		lists [][]int64
		limit int
		want  []int64
	}{
		{"empty", nil, 0, []int64{}},
		{"all-empty", [][]int64{{}, nil, {}}, 0, []int64{}},
		{"all-empty-limit", [][]int64{{}, nil, {}}, 3, []int64{}},
		{"single", [][]int64{{1, 3, 5}}, 0, []int64{1, 3, 5}},
		{"single-limit", [][]int64{{}, {1, 3, 5}}, 2, []int64{1, 3}},
		{"two", [][]int64{{1, 4}, {2, 3}}, 0, []int64{1, 2, 3, 4}},
		{"three", [][]int64{{2, 9}, {1, 8}, {5}}, 0, []int64{1, 2, 5, 8, 9}},
		{"limit-cuts", [][]int64{{2, 9}, {1, 8}, {5}}, 3, []int64{1, 2, 5}},
		{"limit-equal", [][]int64{{2, 9}, {1, 8}, {5}}, 5, []int64{1, 2, 5, 8, 9}},
		{"limit-over", [][]int64{{2}, {1}}, 10, []int64{1, 2}},
		{"limit-inside-tail", [][]int64{{1}, {2, 3, 4, 5}}, 3, []int64{1, 2, 3}},
	}
	for _, tc := range cases {
		resp := gatherLists(t, tc.lists, tc.limit)
		if resp.IDs == nil {
			t.Errorf("%s: ids is nil, would encode as null", tc.name)
		}
		if !slices.Equal(resp.IDs, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, resp.IDs, tc.want)
		}
	}
}

func TestGatherMergeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 400; iter++ {
		n := 1 + rng.Intn(6)
		lists := make([][]int64, n)
		var all []int64
		used := map[int64]bool{}
		for i := range lists {
			m := rng.Intn(8)
			if iter%10 == 0 {
				m = 0 // every tenth round: all-empty inputs
			}
			for j := 0; j < m; j++ {
				// Disjoint ids, matching the shard invariant.
				v := int64(rng.Intn(1000))
				if used[v] {
					continue
				}
				used[v] = true
				lists[i] = append(lists[i], v)
				all = append(all, v)
			}
			slices.Sort(lists[i])
		}
		slices.Sort(all)
		// limit 0 (none), below, equal to and above the total all occur.
		limit := rng.Intn(len(all) + 3)
		want := all
		if limit > 0 && limit < len(want) {
			want = want[:limit]
		}
		before := make([][]int64, n)
		for i, l := range lists {
			before[i] = slices.Clone(l)
		}
		resp := gatherLists(t, lists, limit)
		if !slices.Equal(resp.IDs, want) {
			t.Fatalf("iter %d: merge(%v, limit=%d) = %v, want %v", iter, lists, limit, resp.IDs, want)
		}
		if resp.Count != len(want) {
			t.Fatalf("iter %d: count %d, want %d", iter, resp.Count, len(want))
		}
		if cut := limit > 0 && len(all) > limit; resp.Truncated != cut {
			t.Fatalf("iter %d: truncated %v with %d ids under limit %d", iter, resp.Truncated, len(all), limit)
		}
		for i, l := range lists {
			if resp.Shards[i].Reported != len(l) {
				t.Fatalf("iter %d: shard %d reported %d, holds %d", iter, i, resp.Shards[i].Reported, len(l))
			}
			if !slices.Equal(l, before[i]) {
				t.Fatalf("iter %d: merge modified leg %d's list", iter, i)
			}
		}
		body, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 && !bytes.Contains(body, []byte(`"ids":[]`)) {
			t.Fatalf("iter %d: empty answer encodes as %s", iter, body)
		}
	}
}
