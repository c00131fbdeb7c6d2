package invidx

import (
	"sort"

	"kwsc/internal/bitpack"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
)

// Packed is the cache-conscious form of the inverted index: every posting
// list delta-encoded into fixed-size bit-packed blocks (bitpack.BlockSize
// ids each) inside one shared arena, with per-block skip maxima. Conjunctive
// queries leapfrog over bitpack.Cursors — the driver (smallest) list names
// candidates, the others advance by galloping over block maxima, and a
// block's payload is decoded only when its [First, Max] window straddles the
// candidate. Space drops from one 4-byte id per entry to the list's delta
// entropy (a few bits per id for dense lists); the skip metadata restores
// the galloping asymptotics of the pointer layout.
type Packed struct {
	ds    *dataset.Dataset
	arena bitpack.PackedLists
	lists map[dataset.Keyword]bitpack.List
}

// Pack converts the index into its packed form. The receiver's posting map
// is not retained; callers that keep only the Packed value release the raw
// id slices to the collector.
func (ix *Index) Pack() *Packed {
	// Deterministic arena layout: keywords in ascending order.
	ws := make([]dataset.Keyword, 0, len(ix.postings))
	for w := range ix.postings {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(a, b int) bool { return ws[a] < ws[b] })
	p := &Packed{ds: ix.ds, lists: make(map[dataset.Keyword]bitpack.List, len(ws))}
	for _, w := range ws {
		p.lists[w] = p.arena.Append(ix.postings[w])
	}
	return p
}

// BuildPacked constructs the packed inverted index directly from a dataset.
func BuildPacked(ds *dataset.Dataset) *Packed {
	return Build(ds).Pack()
}

// DocFrequency returns |S_w|.
func (p *Packed) DocFrequency(w dataset.Keyword) int { return int(p.lists[w].N) }

// ScanCost returns sum_i |S_wi| (see Index.ScanCost).
func (p *Packed) ScanCost(ws []dataset.Keyword) int64 {
	var s int64
	for _, w := range ws {
		s += int64(p.lists[w].N)
	}
	return s
}

// SpaceWords audits the packed footprint: the shared arena plus one handle
// and map slot per keyword.
func (p *Packed) SpaceWords() int64 {
	return p.arena.SpaceWords() + 3*int64(len(p.lists))
}

// Posting decodes the full posting list of w into a fresh slice (nil when w
// never occurs). It exists for verification; the query paths never
// materialize whole lists.
func (p *Packed) Posting(w dataset.Keyword) []int32 {
	l, ok := p.lists[w]
	if !ok {
		return nil
	}
	return p.arena.UnpackInto(l, make([]int32, 0, l.N))
}

// ordered returns the lists of ws smallest-first (ties by keyword id, the
// same total order Index.orderedLists uses); ok is false when a keyword is
// absent or empty.
func (p *Packed) ordered(ws []dataset.Keyword) (lists []bitpack.List, ok bool) {
	type entry struct {
		l bitpack.List
		w dataset.Keyword
	}
	entries := make([]entry, len(ws))
	for i, w := range ws {
		l, present := p.lists[w]
		if !present || l.N == 0 {
			return nil, false
		}
		entries[i] = entry{l, w}
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].l.N != entries[b].l.N {
			return entries[a].l.N < entries[b].l.N
		}
		return entries[a].w < entries[b].w
	})
	lists = make([]bitpack.List, len(entries))
	for i, e := range entries {
		lists[i] = e.l
	}
	return lists, true
}

// leapfrog calls emit with every id present in all of ws's lists, ascending,
// until emit returns false. The smallest list drives; every list is walked by
// a bitpack.Cursor, so a candidate the other lists leap over names the next
// id worth asking the driver about, and no block is decoded unless its
// [First, Max] window straddles a candidate.
func (p *Packed) leapfrog(ws []dataset.Keyword, emit func(int32) bool) {
	lists, ok := p.ordered(ws)
	if !ok || len(lists) == 0 {
		return
	}
	cur := make([]bitpack.Cursor, len(lists))
	for i := range cur {
		cur[i].Reset(&p.arena, lists[i])
	}
	drive, rest := &cur[0], cur[1:]
next:
	for target := int32(0); ; {
		id, ok := drive.Seek(target)
		if !ok {
			return
		}
		for i := range rest {
			v, ok := rest[i].Seek(id)
			if !ok {
				return // some list exhausted: nothing more can match
			}
			if v != id {
				target = v
				continue next
			}
		}
		if !emit(id) {
			return
		}
		target = id + 1
	}
}

// IntersectInto answers a k-SI reporting query, appending the ids of objects
// containing every keyword to dst (ascending). A single keyword's answer is
// its whole list, decoded block after block with no cursor in between.
func (p *Packed) IntersectInto(dst []int32, ws []dataset.Keyword) []int32 {
	if len(ws) == 1 {
		return p.arena.UnpackInto(p.lists[ws[0]], dst)
	}
	p.leapfrog(ws, func(id int32) bool {
		dst = append(dst, id)
		return true
	})
	return dst
}

// Intersect is IntersectInto with a fresh result slice.
func (p *Packed) Intersect(ws []dataset.Keyword) []int32 {
	if len(ws) == 0 {
		return nil
	}
	return p.IntersectInto(nil, ws)
}

// Empty answers a k-SI emptiness query without materializing results.
func (p *Packed) Empty(ws []dataset.Keyword) bool {
	empty := true
	p.leapfrog(ws, func(int32) bool {
		empty = false
		return false
	})
	return empty
}

// KeywordsOnly is the packed form of the "keywords only" baseline: intersect
// the posting lists block-at-a-time, then discard objects outside q.
func (p *Packed) KeywordsOnly(q geom.Region, ws []dataset.Keyword) []int32 {
	ids := p.Intersect(ws)
	out := ids[:0]
	for _, id := range ids {
		if q.ContainsPoint(p.ds.Point(id)) {
			out = append(out, id)
		}
	}
	return out
}
