package main

import (
	"fmt"
	"sort"

	"kwsc"
)

// oracle answers queries by brute force, sharing nothing with the system
// under test: it scans the shortest posting list of the query's keywords,
// keeps the candidates whose documents carry every keyword, and tests their
// points. For a dynamic corpus it replays the op log (insert, remove) in
// acknowledgement order.
type oracle struct {
	ids      []int64
	objs     []kwsc.Object
	dead     []bool
	byID     map[int64]int32
	postings map[kwsc.Keyword][]int32
	// carriers remembers, per keyword tuple, the objects carrying all of it
	// (heavy-core asks for one triple 10^5 times over 3·10^4-entry lists).
	// An insert empties it; a removal only marks the object dead.
	carriers map[string][]int32
}

func newOracle() *oracle {
	return &oracle{byID: map[int64]int32{}, postings: map[kwsc.Keyword][]int32{}}
}

// insert records a live object under the id the server reports it by.
// Documents must be normalized (sorted, distinct), as kwsc.Dataset keeps them.
func (o *oracle) insert(id int64, obj kwsc.Object) {
	pos := int32(len(o.ids))
	o.ids = append(o.ids, id)
	o.objs = append(o.objs, obj)
	o.dead = append(o.dead, false)
	o.byID[id] = pos
	for _, w := range obj.Doc {
		o.postings[w] = append(o.postings[w], pos)
	}
	o.carriers = nil
}

// remove marks id deleted and reports whether it was live.
func (o *oracle) remove(id int64) bool {
	pos, ok := o.byID[id]
	if !ok || o.dead[pos] {
		return false
	}
	o.dead[pos] = true
	return true
}

func hasKeyword(doc []kwsc.Keyword, w kwsc.Keyword) bool {
	for _, d := range doc {
		if d == w {
			return true
		}
	}
	return false
}

// carrying returns the positions of the objects, live or dead, whose
// documents carry all of ws.
func (o *oracle) carrying(ws []kwsc.Keyword) []int32 {
	key := fmt.Sprint(ws)
	if c, ok := o.carriers[key]; ok {
		return c
	}
	shortest := o.postings[ws[0]]
	for _, w := range ws[1:] {
		if p := o.postings[w]; len(p) < len(shortest) {
			shortest = p
		}
	}
	c := []int32{}
candidates:
	for _, pos := range shortest {
		for _, w := range ws {
			if !hasKeyword(o.objs[pos].Doc, w) {
				continue candidates
			}
		}
		c = append(c, pos)
	}
	if o.carriers == nil {
		o.carriers = map[string][]int32{}
	}
	o.carriers[key] = c
	return c
}

// answer returns the ids of every live object inside rect carrying all of
// ws, ascending.
func (o *oracle) answer(rect *kwsc.RectWire, ws []kwsc.Keyword) []int64 {
	var out []int64
candidates:
	for _, pos := range o.carrying(ws) {
		if o.dead[pos] {
			continue
		}
		for j, x := range o.objs[pos].Point {
			if x < rect.Lo[j] || x > rect.Hi[j] {
				continue candidates
			}
		}
		out = append(out, o.ids[pos])
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// check compares a served answer with the oracle's. Without a binding limit
// the two must be equal. Under a binding limit the service returns some
// `limit` matches (each shard stops at its first `limit` in traversal
// order), so the answer must be exactly limit distinct ascending members of
// the full answer.
func (o *oracle) check(q *kwsc.QueryRequest, got []int64) error {
	want := o.answer(q.Rect, q.Keywords)
	if q.Limit == 0 || len(want) <= q.Limit {
		if len(got) != len(want) {
			return fmt.Errorf("got %d ids, oracle has %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("id %d at position %d, oracle has %d", got[i], i, want[i])
			}
		}
		return nil
	}
	if len(got) != q.Limit {
		return fmt.Errorf("got %d ids under limit %d with %d matches", len(got), q.Limit, len(want))
	}
	j := 0
	for i, id := range got {
		if i > 0 && id <= got[i-1] {
			return fmt.Errorf("ids not strictly ascending at position %d", i)
		}
		for j < len(want) && want[j] < id {
			j++
		}
		if j == len(want) || want[j] != id {
			return fmt.Errorf("id %d is not a match", id)
		}
	}
	return nil
}
