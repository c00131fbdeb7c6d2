package codec

import (
	"bytes"
	"testing"

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
