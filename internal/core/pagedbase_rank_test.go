package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kwsc/internal/codec"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/pager"
	"kwsc/internal/workload"
)

// This file holds the rank-order base to its two contracts: whatever the
// geometry, a query answers what a scan of the written snapshot answers and
// the file verifies and reads back to that snapshot column for column; and
// whatever one value of the index sections says, the base refuses the file
// or reports true matches only.

// geometrySnapshot builds a snapshot of n entries whose points come from
// point(i) and whose documents draw 1-3 of six keywords, so that any pair of
// keywords has matches everywhere.
func geometrySnapshot(seed int64, n, dim int, point func(rng *rand.Rand, i int, p geom.Point)) *Snapshot {
	rng := rand.New(rand.NewSource(seed))
	s := &Snapshot{K: 2, Dim: dim, LastSeq: uint64(n)}
	objs := make([]dataset.Object, n)
	h := int64(-1)
	for i := range objs {
		h += 1 + int64(rng.Intn(3))
		s.Handles = append(s.Handles, h)
		p := make(geom.Point, dim)
		point(rng, i, p)
		doc := make([]dataset.Keyword, 1+rng.Intn(3))
		for j := range doc {
			doc[j] = dataset.Keyword(rng.Intn(6))
		}
		objs[i] = dataset.Object{Point: p, Doc: doc}
	}
	s.Objs = dataset.MustNew(objs)
	s.NextHandle = h + 1
	return s
}

// sameSnapshotColumns compares an entry set with the snapshot it was written
// from, points by bit pattern (a NaN equals itself here).
func sameSnapshotColumns(t *testing.T, what string, hs []int64, objs *dataset.Dataset, snap *Snapshot) {
	t.Helper()
	if !slices.Equal(hs, snap.Handles) {
		t.Fatalf("%s: handle column differs", what)
	}
	gp, gs, gw := objs.Columns()
	wp, ws, ww := snap.Objs.Columns()
	if !slices.EqualFunc(gp, wp, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("%s: point column differs", what)
	}
	if !slices.Equal(gs, ws) || !slices.Equal(gw, ww) {
		t.Fatalf("%s: document columns differ", what)
	}
}

// TestPagedBaseRankOrderDifferential: both base modes against snapOracle
// over geometry that stresses the kd leaf order — every point equal,
// collinear points, two values on the axis the root splits, fewer entries
// than a cell, a cell count's multiple and its neighbours, infinite
// coordinates (a dataset refuses NaN) — in dimensions 1 to 4, with rectangles
// whose faces lie exactly on stored leaf box faces (the intervals are closed,
// as Rect.ContainsPoint's), rectangles that meet no node, and random ones.
func TestPagedBaseRankOrderDifferential(t *testing.T) {
	type geometry struct {
		name  string
		n     func(cell int) int
		point func(rng *rand.Rand, i int, p geom.Point)
	}
	uniform := func(rng *rand.Rand, _ int, p geom.Point) {
		for j := range p {
			p[j] = rng.Float64()
		}
	}
	geometries := []geometry{
		{"all-equal", func(c int) int { return 3*c + 5 }, func(_ *rand.Rand, _ int, p geom.Point) {
			for j := range p {
				p[j] = 0.5
			}
		}},
		{"collinear", func(c int) int { return 4 * c }, func(_ *rand.Rand, i int, p geom.Point) {
			for j := range p {
				p[j] = float64(i%97) / 97
			}
		}},
		{"two-values-on-the-split-axis", func(c int) int { return 5*c + 1 }, func(rng *rand.Rand, i int, p geom.Point) {
			uniform(rng, i, p)
			p[0] = 10 * float64(rng.Intn(2)) // the root's split axis, and every dim-th level's
		}},
		{"below-a-cell", func(c int) int { return c / 2 }, uniform},
		{"one-entry", func(int) int { return 1 }, uniform},
		{"cells-minus-one", func(c int) int { return 3*c - 1 }, uniform},
		{"cells-exactly", func(c int) int { return 3 * c }, uniform},
		{"cells-plus-one", func(c int) int { return 3*c + 1 }, uniform},
		{"non-finite", func(c int) int { return 2*c + 7 }, func(rng *rand.Rand, i int, p geom.Point) {
			uniform(rng, i, p)
			switch i % 41 {
			case 1:
				p[len(p)-1] = math.Inf(1)
			case 2:
				p[0] = math.Inf(-1)
			}
		}},
	}
	for dim := 1; dim <= 4; dim++ {
		for gi, g := range geometries {
			n := g.n(cellSize(dim))
			snap := geometrySnapshot(int64(100*dim+gi), n, dim, g.point)
			name := fmt.Sprintf("d=%d/%s", dim, g.name)

			for mode, b := range openBothBaseModes(t, snap) {
				what := name + " " + mode
				if len(b.spans) == 0 || b.spans[0] != int32(n) || len(b.tree) != 2*dim*len(b.spans) {
					t.Fatalf("%s: %d stored nodes and %d tree floats for %d entries", what, len(b.spans), len(b.tree), n)
				}
				if err := b.verify(); err != nil {
					t.Fatalf("%s: Verify: %v", what, err)
				}
				hs, objs, err := b.entries()
				if err != nil {
					t.Fatalf("%s: Entries: %v", what, err)
				}
				sameSnapshotColumns(t, what+" Entries", hs, objs, snap)

				rng := rand.New(rand.NewSource(int64(dim)))
				rects := []*geom.Rect{geom.UniverseRect(dim)}
				for i := 0; i < 12; i++ {
					rects = append(rects, randRect(rng, dim))
				}
				// The first leaves' own boxes; their upper corners alone; and the
				// boxes just past their upper faces, which meet them in nothing.
				leaves := leafNodes(b)
				for _, node := range leaves[:min(6, len(leaves))] {
					box := b.tree[2*dim*node : 2*dim*(node+1)]
					lo, hi := box[:dim], box[dim:]
					past := make([]float64, dim)
					for j := range past {
						past[j] = math.Nextafter(hi[j], math.Inf(1))
					}
					rects = append(rects,
						&geom.Rect{Lo: slices.Clone(lo), Hi: slices.Clone(hi)},
						&geom.Rect{Lo: slices.Clone(hi), Hi: slices.Clone(hi)},
						&geom.Rect{Lo: past, Hi: slices.Clone(past)})
				}
				for _, q := range rects {
					for _, ws := range [][]dataset.Keyword{{0, 1}, {4, 2}, {5, 3}} {
						got, st := collectBase(t, b, q, ws, QueryOpts{})
						if want := snapOracle(snap, q, ws); !slices.Equal(got, want) {
							t.Fatalf("%s q=%v ws=%v: got %v, want %v", what, q, ws, got, want)
						}
						// (No descent at all when a keyword is not in the vocabulary.)
						if len(got) > 0 && st.NodesVisited == 0 ||
							st.NodesVisited > 0 && st.NodesVisited != st.CoveredNodes+st.CrossingNodes+disjointVisits(b, q) {
							t.Fatalf("%s q=%v: %d nodes visited, %d covered, %d crossing", what, q, st.NodesVisited, st.CoveredNodes, st.CrossingNodes)
						}
					}
				}
				// A rectangle off the data meets no node: the root is visited (when
				// both keywords exist at all), found disjoint, and no list is opened.
				if g.name != "non-finite" {
					off := geom.UniverseRect(dim)
					off.Lo[0], off.Hi[0] = 100, 200
					got, st := collectBase(t, b, off, []dataset.Keyword{0, 1}, QueryOpts{})
					if len(got) != 0 || st.NodesVisited > 1 || st.Ops != 0 {
						t.Fatalf("%s: rectangle off the data: %d results, %d nodes, %d ops", what, len(got), st.NodesVisited, st.Ops)
					}
				}
				b.Close()
			}
		}
	}
}

// leafNodes lists the preorder indexes of the stored leaves of b's tree, in
// rank order.
func leafNodes(b *PagedBase) []int {
	var leaves []int
	for node, span := range b.spans {
		if int(span) <= b.cell {
			leaves = append(leaves, node)
		}
	}
	return leaves
}

// disjointVisits counts the nodes a descent with q visits and finds disjoint
// (the only visits that are neither covered nor crossing).
func disjointVisits(b *PagedBase, q *geom.Rect) int {
	d := b.dim
	var walk func(node int) int
	walk = func(node int) int {
		box := b.tree[2*d*node : 2*d*(node+1)]
		switch rel := q.RelateRect(box[:d], box[d:]); {
		case rel == geom.Disjoint:
			return 1
		case rel == geom.Covered || int(b.spans[node]) <= b.cell:
			return 0
		}
		n := 0
		for c := node + 1; c < int(b.next[node]); c = int(b.next[c]) {
			n += walk(c)
		}
		return n
	}
	return walk(0)
}

// TestSnapshotMetaBounds feeds the one checkpoint reader, mapped and through
// the pread pool, hostile superblock metas over one small well-formed
// section set. snapshotMeta refuses each for its reason — in
// particular a count of 1<<31, which a decoding reader once accepted while
// every rank and entry index is an int32.
func TestSnapshotMetaBounds(t *testing.T) {
	snap := testCheckpointSnapshot(5, 3, 2)
	var buf bytes.Buffer
	if err := WritePagedSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	good := codec.PagedMeta{Kind: codec.PagedKindSnapshot, K: 2, Dim: 2, Count: 3, LastSeq: snap.LastSeq, NextHandle: uint64(snap.NextHandle)}
	with := func(edit func(*codec.PagedMeta)) codec.PagedMeta {
		m := good
		edit(&m)
		return m
	}
	for _, c := range []struct {
		name   string
		meta   codec.PagedMeta
		reason string // "" = accepted
	}{
		{"as written", good, ""},
		{"count 1<<31", with(func(m *codec.PagedMeta) { m.Count = 1 << 31 }), "implausible snapshot meta"},
		{"count 1<<40", with(func(m *codec.PagedMeta) { m.Count = 1 << 40 }), "implausible snapshot meta"},
		// The largest count the bound lets through fails on the sections, not the meta.
		{"count MaxInt32", with(func(m *codec.PagedMeta) { m.Count = math.MaxInt32 }), "section"},
		{"k 1", with(func(m *codec.PagedMeta) { m.K = 1 }), "implausible snapshot meta"},
		{"k 65", with(func(m *codec.PagedMeta) { m.K = 65 }), "implausible snapshot meta"},
		{"dim 0", with(func(m *codec.PagedMeta) { m.Dim = 0 }), "implausible snapshot meta"},
		{"dim 65", with(func(m *codec.PagedMeta) { m.Dim = 65 }), "implausible snapshot meta"},
		{"watermark past int64", with(func(m *codec.PagedMeta) { m.NextHandle = 1 << 63 }), "implausible snapshot meta"},
		{"a flat image", with(func(m *codec.PagedMeta) { m.Kind = codec.PagedKindFlatORPKW }), "not a snapshot"},
	} {
		raw := reseal(t, buf.Bytes(), &c.meta, nil)
		for _, opts := range []PagedBaseOptions{{}, {NoMmap: true}} {
			switch _, _, err := readCheckpoint(t, raw, opts); {
			case c.reason == "" && err != nil:
				t.Fatalf("%s: %+v refused it: %v", c.name, opts, err)
			case c.reason != "" && (err == nil || !strings.Contains(err.Error(), c.reason)):
				t.Fatalf("%s: %+v returned %v, want a refusal naming %q", c.name, opts, err, c.reason)
			}
		}
	}
}

// TestPagedBaseOpenTellsDamageFromLies goes over every column open reads.
// A byte flipped in place fails that column's page checksum, and the reader
// says so (pager.ErrChecksum), mapped and through the pread pool, before any
// value on the page is judged: a damaged handle page is not "handles not
// strictly increasing". A structural lie re-sealed under fresh checksums is
// codec.ErrCorrupt in both modes alike.
func TestPagedBaseOpenTellsDamageFromLies(t *testing.T) {
	snap := testCheckpointSnapshot(3, 3000, 2)
	var buf bytes.Buffer
	if err := WritePagedSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	golden := buf.Bytes()
	c, err := codec.ParseContainer(bytes.NewReader(golden), int64(len(golden)))
	if err != nil {
		t.Fatal(err)
	}
	// Each lie is told in place, on a copy of the section's bytes.
	for _, col := range []struct {
		id        uint32
		what, lie string
		edit      func(d []byte)
	}{
		{codec.SecHandles, "handles", "a handle repeated", func(d []byte) { copy(d[8*1500:], d[8*1499:8*1500]) }},
		{codec.SecEntryRank, "entry -> rank column", "a rank repeated", func(d []byte) { copy(d[4*1500:], d[:4]) }},
		{codec.SecDocStart, "document offsets", "an empty document", func(d []byte) { copy(d[8*1500:], d[8*1499:8*1500]) }},
		{codec.SecVocab, "vocabulary", "a keyword repeated", func(d []byte) { copy(d[4:], d[:4]) }},
		{codec.SecPostLists, "posting lists", "a list past the block directory", func(d []byte) { copy(d, codec.Put([]int32{1 << 30})) }},
		{codec.SecPostBlocks, "posting blocks", "a block whose ranks run backwards", func(d []byte) { copy(d[8:], codec.Put([]int32{-1})) }},
		// The first keyword's list spans several blocks; its first two trade
		// places, each block sound on its own.
		{codec.SecPostBlocks, "posting blocks", "two blocks of a list swapped", func(d []byte) {
			first := slices.Clone(d[:16])
			copy(d, d[16:32])
			copy(d[16:], first)
		}},
		{codec.SecTreeBoxes, "tree boxes", "a box inside out", func(d []byte) { copy(d, codec.Put([]float64{math.Inf(1)})) }},
		{codec.SecTreeSpans, "tree spans", "a child span at its parent's", func(d []byte) { copy(d[4:], d[:4]) }},
		{codec.SecTreeSpans, "tree spans", "spans that do not sum", func(d []byte) { copy(d[len(d)-4:], codec.Put([]int32{1})) }},
	} {
		off, n, ok := c.Section(col.id)
		if !ok {
			t.Fatalf("%s: no section %d", col.what, col.id)
		}
		flipped := slices.Clone(golden)
		flipped[off+n/2] ^= 0x10
		lie := reseal(t, golden, nil, func(id uint32, data []byte) []byte {
			if id != col.id {
				return nil
			}
			out := slices.Clone(data)
			col.edit(out)
			return out
		})
		for _, damage := range []struct {
			name string
			raw  []byte
			want error
		}{{"a flipped byte", flipped, pager.ErrChecksum}, {col.lie, lie, codec.ErrCorrupt}} {
			for _, opts := range []PagedBaseOptions{{}, {NoMmap: true, CapPages: 8}} {
				_, _, err := readCheckpoint(t, damage.raw, opts)
				if !errors.Is(err, damage.want) || damage.want == codec.ErrCorrupt && errors.Is(err, pager.ErrChecksum) {
					t.Errorf("%s, %s: %+v returned %v, want %v", col.what, damage.name, opts, err, damage.want)
				}
			}
		}
	}
}

// reseal rewrites a KWCP2 container — a checkpoint or a flat image, under
// meta when given — with edit applied to every section (nil keeps it, an
// empty non-nil result drops it), through codec.WriteContainer, so every
// checksum of the result is right and only the structural checks stand
// between it and a reader: what a file from another build of this program,
// as opposed to a damaged one, looks like.
func reseal(t testing.TB, raw []byte, meta *codec.PagedMeta, edit func(id uint32, data []byte) []byte) []byte {
	t.Helper()
	c, err := codec.ParseContainer(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	blob := c.Meta
	if meta != nil {
		blob = meta.Encode()
	}
	var secs []codec.Section
	for _, s := range c.Sections {
		if s.ID == codec.SecPageCRC {
			continue
		}
		data, err := c.SectionBytes(bytes.NewReader(raw), s.ID)
		if err != nil {
			t.Fatal(err)
		}
		if edit != nil {
			if out := edit(s.ID, data); out != nil {
				if len(out) == 0 {
					continue
				}
				data = out
			}
		}
		secs = append(secs, codec.Section{ID: s.ID, Data: data})
	}
	var out bytes.Buffer
	if err := codec.WriteContainer(&out, blob, secs); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// withoutRankSections is the checkpoint a release before the rank-order
// format wrote, as far as a reader can tell: no index of the ranks and no
// rows by rank.
func withoutRankSections(t testing.TB, raw []byte) []byte {
	return reseal(t, raw, nil, func(id uint32, _ []byte) []byte {
		if id == codec.SecTreeSpans || id == codec.SecTreeBoxes || id == codec.SecRowHandles || id == codec.SecEntryRank {
			return []byte{}
		}
		return nil
	})
}

// pr24Checkpoint is the checkpoint PR 24's format wrote for the same entries:
// points and postings by rank beside the rank -> entry column
// (codec.SecRankEntry), documents in entry order, no row handles.
func pr24Checkpoint(t testing.TB, raw []byte) []byte {
	t.Helper()
	_, objs, err := readCheckpoint(t, raw, PagedBaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, docStart, docWords := objs.Columns()
	c, err := codec.ParseContainer(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	var secs []codec.Section
	for _, s := range c.Sections[1:] {
		data, err := c.SectionBytes(bytes.NewReader(raw), s.ID)
		if err != nil {
			t.Fatal(err)
		}
		switch s.ID {
		case codec.SecRowHandles:
			continue
		case codec.SecEntryRank:
			rankEntry := make([]int32, len(data)/4)
			for e, r := range codec.Get[int32](data) {
				rankEntry[r] = int32(e)
			}
			s.ID, data = codec.SecRankEntry, codec.Put(rankEntry)
		case codec.SecDocStart:
			data = codec.Put(docStart)
		case codec.SecDocWords:
			data = codec.Put(docWords)
		}
		secs = append(secs, codec.Section{ID: s.ID, Data: data})
	}
	var out bytes.Buffer
	if err := codec.WriteContainer(&out, c.Meta, secs); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// pagedColdCorpus is the corpus and query stream of bench/'s paged-cold
// workload at tier-1 size: a Zipf vocabulary of 1000, six keywords a
// document, side-0.2 rectangles, random keyword pairs.
func pagedColdCorpus(n int) (*Snapshot, func(rng *rand.Rand) (*geom.Rect, []dataset.Keyword)) {
	const vocab = 1000
	ds := workload.Gen(workload.Config{Seed: 1, Objects: n, Dim: 2, Vocab: vocab, DocLen: 6})
	s := &Snapshot{K: 2, Dim: 2, LastSeq: uint64(n), NextHandle: int64(n), Objs: ds}
	for i := 0; i < n; i++ {
		s.Handles = append(s.Handles, int64(i))
	}
	return s, func(rng *rand.Rand) (*geom.Rect, []dataset.Keyword) {
		return workload.RandRect(rng, 2, 0.2), workload.RandKeywords(rng, vocab, 2)
	}
}

// TestPagedBaseRectanglePrunesWork is the hardware-free guard of the rank
// order: on a paged-cold-shaped corpus served through a 256-page pread pool,
// the candidates and the page pins of a query stream are each under half of
// what the same keyword pairs cost when the rectangle prunes nothing — the
// universe rectangle, one run over every rank, which is the unrestricted
// leapfrog over the whole lists. The counts are exact, so the stream's are
// pinned too. The candidates and the tree nodes are the build's rank order's,
// re-pinned when the checkpoint took it and stored its tree cut at one cell:
// the cell-snapped order took 3306 candidates and 15980 nodes, and keeping a
// box per cell of the new order instead of its tree 5169 candidates and 233
// misses. The pins and misses stay under ceilings below what rows by entry
// — documents and handles reached through a rank -> entry column — cost:
// 1389 and 234 inside the rectangles, 11811 and 4669 over the universe,
// whose 2687 results make the rows most of the bill (1190, 212, 7505 and
// 3468 with every row by rank in the build's order).
func TestPagedBaseRectanglePrunesWork(t *testing.T) {
	snap, next := pagedColdCorpus(1 << 15)
	path := writePagedCheckpoint(t, t.TempDir(), "cold.ckpt", snap)
	b, err := OpenPagedBase(path, PagedBaseOptions{NoMmap: true, CapPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	type cost struct{ ops, nodes, pins, misses, reported int64 }
	run := func(universe bool) (c cost) {
		rng := rand.New(rand.NewSource(2))
		counters, _, _ := registryDelta(func() {
			for i := 0; i < 400; i++ {
				q, ws := next(rng)
				if universe {
					q = geom.UniverseRect(2)
				}
				got, st, err := reportOrder(b, q, ws, QueryOpts{})
				if err != nil {
					t.Fatal(err)
				}
				if want := snapOracle(snap, q, ws); !slices.Equal(sortedHandles(got), want) {
					t.Fatalf("query %d: got %v, want %v", i, got, want)
				}
				c.ops, c.nodes, c.reported = c.ops+st.Ops, c.nodes+int64(st.NodesVisited), c.reported+int64(len(got))
			}
		})
		c.misses = counters["kwsc_pager_pin_misses_total"]
		c.pins = counters["kwsc_pager_pin_hits_total"] + c.misses
		return c
	}
	rect, all := run(false), run(true)
	ops, pins, allOps, allPins := rect.ops, rect.pins, all.ops, all.pins
	t.Logf("rectangle: %+v; unrestricted: %+v", rect, all)
	if rect.reported == 0 {
		t.Fatal("the stream reported nothing: the guard measures no survivors")
	}
	if rect.ops != 3091 || rect.nodes != 19644 {
		t.Fatalf("%d candidates and %d nodes, want the build order's 3091 and 19644", rect.ops, rect.nodes)
	}
	if rect.pins > 1300 || rect.misses > 225 || all.pins > 9000 || all.misses > 4000 {
		t.Fatalf("%d and %d pins, %d and %d misses: over 1300, 9000, 225 and 4000, back towards rows by entry",
			rect.pins, all.pins, rect.misses, all.misses)
	}
	if 2*ops >= allOps {
		t.Fatalf("%d candidates inside the rectangles against %d unrestricted: not under half", ops, allOps)
	}
	if 2*pins >= allPins {
		t.Fatalf("%d pins inside the rectangles against %d unrestricted: not under half", pins, allPins)
	}
}

// FuzzPagedBaseHostile changes one value of the entry -> rank column, the
// handle column, the stored tree's spans or boxes or the posting block
// directory and re-seals
// the container, so the page checksums pass and only open's structural
// checks and the base's own tests stand between the lie and an answer. Open
// must refuse the file, or: every query returns without panic and reports
// true matches only — an entry whose own point lies in the rectangle and
// whose own document holds the keywords (a lying section may hide a match;
// DESIGN §15.4); Has is true only for a handle of the written snapshot; and
// Entries either fails or returns the written snapshot, column for column.
func FuzzPagedBaseHostile(f *testing.F) {
	snap := geometrySnapshot(77, 3*cellSize(2)+9, 2, func(rng *rand.Rand, _ int, p geom.Point) {
		p[0], p[1] = rng.Float64(), rng.Float64()
	})
	var buf bytes.Buffer
	if err := WritePagedSnapshot(&buf, snap); err != nil {
		f.Fatal(err)
	}
	golden := buf.Bytes()
	truth := map[int64]int32{} // handle -> entry
	for i, h := range snap.Handles {
		truth[h] = int32(i)
	}
	sections := []uint32{codec.SecEntryRank, codec.SecHandles, codec.SecTreeSpans, codec.SecTreeBoxes, codec.SecPostBlocks}
	// The tree's own values among them: the count, a cell, one rank past it.
	n, cell := uint64(len(snap.Handles)), uint64(cellSize(2))
	for sec := range sections {
		for _, at := range []uint32{0, 1, 5, 1 << 20} {
			for _, v := range []uint64{0, 1, 777, n, n - 1, cell, cell + 1, 1 << 31, math.Float64bits(0.5), math.Float64bits(math.NaN()), math.MaxUint64} {
				f.Add(uint8(sec), at, v)
			}
		}
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, sec uint8, at uint32, v uint64) {
		target := sections[int(sec)%len(sections)]
		raw := reseal(t, golden, nil, func(id uint32, data []byte) []byte {
			if id != target {
				return nil
			}
			out := slices.Clone(data)
			if target == codec.SecTreeBoxes || target == codec.SecHandles {
				copy(out[8*(int(at)%(len(out)/8)):], codec.Put([]uint64{v}))
			} else {
				copy(out[4*(int(at)%(len(out)/4)):], codec.Put([]uint32{uint32(v)}))
			}
			return out
		})
		path := filepath.Join(dir, "hostile.ckpt")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, opts := range []PagedBaseOptions{{}, {NoMmap: true, CapPages: 4}} {
			b, err := OpenPagedBase(path, opts)
			if err != nil {
				if errors.Is(err, pager.ErrChecksum) {
					t.Fatalf("the re-sealed container fails its checksums: %v", err)
				}
				continue
			}
			rng := rand.New(rand.NewSource(int64(at)))
			for i := 0; i < 24; i++ {
				q := randRect(rng, 2)
				if i%6 == 0 {
					q = geom.UniverseRect(2)
				}
				ws := []dataset.Keyword{dataset.Keyword(rng.Intn(6)), 0}
				for ws[1] = dataset.Keyword(rng.Intn(6)); ws[1] == ws[0]; {
					ws[1] = dataset.Keyword(rng.Intn(6))
				}
				_, err := b.Query(q, ws, QueryOpts{}, func(h int64, obj *dataset.Object) bool {
					e, ok := truth[h]
					if !ok {
						t.Fatalf("reported handle %d names no entry", h)
					}
					if !q.ContainsPoint(snap.Objs.Point(e)) || !snap.Objs.HasAll(e, ws) {
						t.Fatalf("q=%v ws=%v: reported handle %d (entry %d) is not a match", q, ws, h, e)
					}
					return true
				})
				if err != nil {
					t.Fatalf("q=%v ws=%v: %v", q, ws, err)
				}
			}
			for h := int64(-1); h <= snap.NextHandle; h++ {
				if _, ok := truth[h]; b.Has(h) && !ok {
					t.Fatalf("Has(%d) = true for a handle no row holds", h)
				}
			}
			if _, ok := truth[int64(v)]; b.Has(int64(v)) && !ok {
				t.Fatalf("Has(%d) = true for the written value, which no row holds", int64(v))
			}
			if hs, objs, err := b.entries(); err == nil {
				sameSnapshotColumns(t, "Entries", hs, objs, snap)
			}
			b.Close()
		}
	})
}

// TestPagedBaseNeverReportsNaNRow: a checkpoint re-sealed with one row's x
// set to NaN opens (open reads no row), but neither mode reports that row for
// a rectangle that excludes it on x, and Verify refuses the file: no tree box
// holds a NaN.
// A NaN passes both halves of lo > x || x > hi, so the row test must ask
// lo <= x && x <= hi.
func TestPagedBaseNeverReportsNaNRow(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	objs := make([]dataset.Object, 50)
	handles := make([]int64, len(objs))
	for i := range objs {
		objs[i] = dataset.Object{Point: geom.Point{rng.Float64(), rng.Float64()}, Doc: []dataset.Keyword{0, 1}}
		handles[i] = int64(i)
	}
	snap := &Snapshot{K: 2, Dim: 2, Handles: handles, Objs: dataset.MustNew(objs), NextHandle: int64(len(objs))}
	var buf bytes.Buffer
	if err := WritePagedSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	c, err := codec.ParseContainer(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.SectionBytes(bytes.NewReader(buf.Bytes()), codec.SecRowHandles)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 of the one stored leaf is not its largest x, so the rectangle
	// just right of it meets the leaf's box and its rows are tested. A handle is
	// its entry here.
	h := int64(binary.LittleEndian.Uint64(rows))
	x, y := objs[h].Point[0], objs[h].Point[1]
	lie := reseal(t, buf.Bytes(), nil, func(id uint32, data []byte) []byte {
		if id != codec.SecPoints {
			return nil
		}
		out := slices.Clone(data)
		copy(out, codec.Put([]float64{math.NaN()}))
		return out
	})
	q := geom.NewRect([]float64{x + 1e-9, y - 1e-3}, []float64{x + 2e-3, y + 1e-3})
	for i, opts := range []PagedBaseOptions{{}, {NoMmap: true, CapPages: 8}} {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("nan-%d.ckpt", i))
		if err := os.WriteFile(path, lie, 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := OpenPagedBase(path, opts)
		if err != nil {
			t.Fatalf("%+v: open: %v", opts, err)
		}
		got, _, err := reportOrder(b, q, []dataset.Keyword{0, 1}, QueryOpts{})
		verr := b.verify()
		b.Close()
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(got, h) {
			t.Fatalf("%+v: the NaN row %d is reported for %v", opts, h, q)
		}
		if !errors.Is(verr, codec.ErrCorrupt) {
			t.Fatalf("%+v: Verify of a NaN row: %v", opts, verr)
		}
	}
}
