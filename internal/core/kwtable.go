package core

import (
	"math/bits"

	"kwsc/internal/dataset"
)

// kwTable numbers keywords densely in the order they are added: an
// open-addressing table with linear probing, its size a power of two at
// least twice its entries, so it grows with the distinct keywords a build
// meets and never with their values.
type kwTable struct {
	slots []kwSlot
	words []dataset.Keyword // dense id -> keyword
}

// kwSlot is one slot of a kwTable: a keyword and its dense id plus one, 0
// while the slot is empty.
type kwSlot struct {
	w  dataset.Keyword
	id int32
}

// kwTableSize is a new table's number of slots.
const kwTableSize = 256

// home returns the slot w's probe starts at: the top bits of a Fibonacci
// hash.
func (t *kwTable) home(w dataset.Keyword) int {
	return int((uint64(w) * 0x9e3779b97f4a7c15) >> (64 - bits.Len(uint(len(t.slots)-1))))
}

// add returns w's dense id, numbering w next when it is new.
func (t *kwTable) add(w dataset.Keyword) int32 {
	if 2*(len(t.words)+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(w); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.id == 0 {
			t.words = append(t.words, w)
			*s = kwSlot{w: w, id: int32(len(t.words))}
			return s.id - 1
		}
		if s.w == w {
			return s.id - 1
		}
	}
}

// grow doubles the table, kwTableSize slots at first, and places every
// keyword again.
func (t *kwTable) grow() {
	t.slots = make([]kwSlot, max(2*len(t.slots), kwTableSize))
	mask := len(t.slots) - 1
	for d, w := range t.words {
		i := t.home(w)
		for t.slots[i].id != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = kwSlot{w: w, id: int32(d + 1)}
	}
}
