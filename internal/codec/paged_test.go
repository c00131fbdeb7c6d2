package codec

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"kwsc/internal/bitpack"
	"kwsc/internal/pager"
)

func TestContainerRoundTrip(t *testing.T) {
	meta := PagedMeta{Kind: 9, K: 3, Dim: 4, Count: 77, LastSeq: 5, NextHandle: 80}
	secs := []Section{
		{ID: 40, Data: bytes.Repeat([]byte{0xab}, 3)},
		{ID: 41, Data: nil},
		{ID: 42, Data: bytes.Repeat([]byte{0x11}, 2*pager.PageSize+5)},
	}
	var buf bytes.Buffer
	if err := WriteContainer(&buf, meta.Encode(), secs); err != nil {
		t.Fatal(err)
	}
	c, err := ParseContainer(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if got := ParsePagedMeta(c.Meta); got != meta {
		t.Fatalf("meta round-trip: %+v vs %+v", got, meta)
	}
	if err := c.VerifyAllPages(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, s := range secs {
		b, err := c.SectionBytes(bytes.NewReader(buf.Bytes()), s.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, s.Data) {
			t.Fatalf("section %d round-trip differs", s.ID)
		}
		off, _, ok := c.Section(s.ID)
		if !ok || off%pager.PageSize != 0 {
			t.Fatalf("section %d at unaligned offset %d", s.ID, off)
		}
	}
	if _, _, ok := c.Section(99); ok {
		t.Fatal("phantom section found")
	}
}

func TestWriteContainerRejectsBadSections(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteContainer(&buf, [64]byte{}, []Section{{ID: 0}}); err == nil {
		t.Fatal("reserved id 0 accepted")
	}
	if err := WriteContainer(&buf, [64]byte{}, []Section{{ID: 7}, {ID: 7}}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	many := make([]Section, MaxSections)
	for i := range many {
		many[i].ID = uint32(i + 1)
	}
	if err := WriteContainer(&buf, [64]byte{}, many); err == nil {
		t.Fatal("directory overflow accepted")
	}
}

// TestValidateRejectsCorruptHandles holds ParsePostings, the one check of a
// posting directory, to every rule a cursor or the totals rely on: a
// directory of three rank lists over 300 ranks passes as written, and each
// one-value lie in a list handle, a block or the vocabulary is ErrCorrupt.
func TestValidateRejectsCorruptHandles(t *testing.T) {
	const count = 300
	var arena bitpack.PackedLists
	var lists []bitpack.List
	for _, step := range []int32{1, 3, 7} {
		var ranks []int32
		for r := int32(0); r < count; r += step {
			ranks = append(ranks, r)
		}
		lists = append(lists, arena.Append(ranks))
	}
	payload, blocks := arena.Raw()
	docWords := int64(lists[0].N + lists[1].N + lists[2].N)
	parse := func(vocab []uint32, lists []bitpack.List, blocks []bitpack.Block, docWords int64) error {
		listsB, blocksB := encodePostings(lists, blocks)
		_, err := ParsePostings(Put(vocab), listsB, blocksB, int64(len(payload)), count, docWords)
		return err
	}
	vocab := []uint32{4, 9, 12}
	if err := parse(vocab, lists, blocks, docWords); err != nil {
		t.Fatalf("the directory as written: %v", err)
	}
	list := func(edit func(l *bitpack.List)) []bitpack.List {
		out := slices.Clone(lists)
		edit(&out[1])
		return out
	}
	block := func(edit func(b []bitpack.Block)) []bitpack.Block {
		out := slices.Clone(blocks)
		edit(out)
		return out
	}
	for _, c := range []struct {
		name   string
		vocab  []uint32
		lists  []bitpack.List
		blocks []bitpack.Block
	}{
		{"a list before the directory", vocab, list(func(l *bitpack.List) { l.Block = -1 }), blocks},
		{"a list past the directory", vocab, list(func(l *bitpack.List) { l.NumBlocks = 99 }), blocks},
		{"a list claiming a rank more", vocab, list(func(l *bitpack.List) { l.N++ }), blocks},
		{"an empty block", vocab, lists, block(func(b []bitpack.Block) { b[0].N = 0 })},
		{"a block past BlockSize", vocab, lists, block(func(b []bitpack.Block) { b[0].N = bitpack.BlockSize + 1 })},
		{"33-bit deltas", vocab, lists, block(func(b []bitpack.Block) { b[0].W = 33 })},
		{"a payload past the section", vocab, lists, block(func(b []bitpack.Block) { b[len(b)-1].Off = int32(len(payload)) / 8 })},
		{"a negative rank", vocab, lists, block(func(b []bitpack.Block) { b[0].First = -1 })},
		{"a rank past the count", vocab, lists, block(func(b []bitpack.Block) { b[1].Max = count })},
		{"a block whose ranks run backwards", vocab, lists, block(func(b []bitpack.Block) { b[1].First = b[1].Max + 1 })},
		{"two blocks of a list swapped", vocab, lists, block(func(b []bitpack.Block) { b[0], b[1] = b[1], b[0] })},
		{"a keyword repeated", []uint32{4, 4, 12}, lists, blocks},
		{"a list short of a keyword", vocab[:2], lists, blocks},
	} {
		if err := parse(c.vocab, c.lists, c.blocks, docWords); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, err)
		}
	}
	if err := parse(vocab, lists, blocks, docWords+1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a posting short of the document words: err = %v, want ErrCorrupt", err)
	}
	listsB, blocksB := encodePostings(lists, blocks)
	for name, args := range map[string][3][]byte{
		"a vocabulary cut mid-keyword": {Put(vocab)[1:], listsB, blocksB},
		"a list cut mid-handle":        {Put(vocab), listsB[4:], blocksB},
		"a block cut mid-entry":        {Put(vocab), listsB, blocksB[:len(blocksB)-4]},
		"unknown block flags":          {Put(vocab), listsB, append(slices.Clone(blocksB[:12]), 1, 0, 0, 1)},
	} {
		if _, err := ParsePostings(args[0], args[1], args[2], int64(len(payload)), count, docWords); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := ParsePostings(Put(vocab), listsB, blocksB, int64(len(payload))-4, count, docWords); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a payload cut mid-word: err = %v, want ErrCorrupt", err)
	}
}
