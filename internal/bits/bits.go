// Package bits provides the low-level word-RAM building blocks of the
// secondary structures T_u in the index-transformation framework
// (Section 3.2): dense bitsets backing the k-dimensional non-emptiness bit
// arrays.
package bits

import "math/bits"

// Dense is a fixed-capacity dense bitset.
type Dense struct {
	words []uint64
	n     int
}

// NewDense returns a bitset holding n bits, all zero.
func NewDense(n int) *Dense {
	return &Dense{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity in bits.
func (d *Dense) Len() int { return d.n }

// Set sets bit i.
func (d *Dense) Set(i int) { d.words[i>>6] |= 1 << (uint(i) & 63) }

// Get reports bit i.
func (d *Dense) Get(i int) bool { return d.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of set bits.
func (d *Dense) Count() int {
	c := 0
	for _, w := range d.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Arena is a single word slice holding many concatenated bitsets, each
// word-aligned and addressed by the word offset its owner recorded when it
// laid the words out (ArenaFromWords). The flat index layout concatenates
// every per-child non-emptiness tensor of a tree into one arena: one
// allocation, contiguous in memory, no per-tensor slice headers or pointer
// hops on the query path.
type Arena struct {
	words []uint64
}

// Get reports bit i of the bitset starting at word offset off.
func (a *Arena) Get(off int64, i int64) bool {
	return a.words[off+i>>6]&(1<<(uint64(i)&63)) != 0
}

// Words returns the arena size in 64-bit words.
func (a *Arena) Words() int64 { return int64(len(a.words)) }

// SpaceBits returns the storage footprint in bits.
func (a *Arena) SpaceBits() int64 { return int64(len(a.words)) * 64 }
