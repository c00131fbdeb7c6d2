package bitpack

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// This file is the packed-posting codec the flat index layouts build on:
// int32 sequences delta-encoded (zigzag, so unsorted sequences round-trip
// too) and bit-packed at a fixed per-block width into 64-bit words, in
// blocks of BlockSize values with per-block skip metadata (first value, max
// value, payload offset). Sorted lists — inverted-index postings, the
// framework's materialized small-keyword lists in id order — compress to a
// few bits per entry; the per-block maxima let an intersection skip a block
// entirely, and decode it only when its [First, Max] window admits a match
// (see core.PagedBase).

// BlockSize is the number of values per packed block. 128 deltas at the
// typical 8-16 bit width keep a block's payload within two or four cache
// lines, so one decode touches a predictable, contiguous byte range.
const BlockSize = 128

// Block is the skip metadata of one packed block. The first value is stored
// raw; the remaining N-1 values are zigzag deltas packed at W bits each
// starting at word Off of the arena.
type Block struct {
	Off   int32 // payload offset into the arena's words
	First int32 // first value of the block, stored raw
	Max   int32 // maximum value in the block (== last value for sorted lists)
	N     int16 // values in the block, 1 <= N <= BlockSize
	W     uint8 // bits per packed delta (0 iff N == 1)
}

// Words returns the number of 64-bit payload words the block occupies.
func (b Block) Words() int { return (int(b.N-1)*int(b.W) + 63) / 64 }

// MaxBlockBytes bounds a block's serialized payload: BlockSize-1 deltas at
// the widest width Validate admits (32 bits), in whole words.
const MaxBlockBytes = 8 * (((BlockSize-1)*32 + 63) / 64)

// List is a handle to one packed sequence inside a PackedLists arena.
type List struct {
	Block     int32 // index of the first block in the arena
	NumBlocks int32
	N         int32 // total values
}

// PackedLists is an arena of packed sequences: all payload words and all
// block metadata live in two contiguous slices, so a set of posting lists
// becomes two allocations instead of one slice header per keyword.
type PackedLists struct {
	words  []uint64
	blocks []Block
}

// Append packs ids into the arena and returns the list handle. Any int32
// sequence is accepted (deltas are zigzag-encoded); an empty sequence
// returns a zero-block handle.
func (a *PackedLists) Append(ids []int32) List {
	l := List{Block: int32(len(a.blocks)), N: int32(len(ids))}
	for len(ids) > 0 {
		n := len(ids)
		if n > BlockSize {
			n = BlockSize
		}
		a.appendBlock(ids[:n])
		ids = ids[n:]
		l.NumBlocks++
	}
	return l
}

// appendBlock packs one block of 1..BlockSize values.
func (a *PackedLists) appendBlock(ids []int32) {
	b := Block{
		Off:   int32(len(a.words)),
		First: ids[0],
		Max:   ids[0],
		N:     int16(len(ids)),
	}
	var width uint8
	prev := ids[0]
	for _, v := range ids[1:] {
		if v > b.Max {
			b.Max = v
		}
		z := zigzag(v - prev)
		if w := uint8(bits.Len32(z)); w > width {
			width = w
		}
		prev = v
	}
	b.W = width
	if width > 0 {
		a.words = append(a.words, make([]uint64, b.Words())...)
		words := a.words[b.Off:]
		bit := 0
		prev = ids[0]
		for _, v := range ids[1:] {
			z := uint64(zigzag(v - prev))
			words[bit>>6] |= z << (uint(bit) & 63)
			if spill := bit&63 + int(width) - 64; spill > 0 {
				words[bit>>6+1] = z >> (uint(width) - uint(spill))
			}
			bit += int(width)
			prev = v
		}
	}
	a.blocks = append(a.blocks, b)
}

// Blocks returns the block metadata of l (read-only view into the arena).
func (a *PackedLists) Blocks(l List) []Block {
	return a.blocks[l.Block : l.Block+l.NumBlocks]
}

// DecodeBlock appends the values of block b to dst and returns it. With
// cap(dst)-len(dst) >= BlockSize the call performs no allocation.
func (a *PackedLists) DecodeBlock(b Block, dst []int32) []int32 {
	dst = append(dst, b.First)
	if b.N == 1 {
		return dst
	}
	if b.W == 0 {
		// All deltas zero: the block repeats its first value.
		for i := int16(1); i < b.N; i++ {
			dst = append(dst, b.First)
		}
		return dst
	}
	words := a.words[b.Off:]
	width := uint(b.W)
	mask := uint64(1)<<width - 1
	bit := 0
	prev := b.First
	for i := int16(1); i < b.N; i++ {
		z := words[bit>>6] >> (uint(bit) & 63)
		if spill := bit&63 + int(width) - 64; spill > 0 {
			z |= words[bit>>6+1] << (uint(width) - uint(spill))
		}
		prev += unzigzag(uint32(z & mask))
		dst = append(dst, prev)
		bit += int(width)
	}
	return dst
}

// DecodeBlockBytes is DecodeBlock over the block's own payload in serialized
// form: payload holds the 8*b.Words() little-endian bytes that start at word
// b.Off of the arena (b.Off itself is not consulted). It lets a reader of a
// paged posting section decode straight out of a pinned page.
func DecodeBlockBytes(b Block, payload []byte, dst []int32) []int32 {
	dst = append(dst, b.First)
	if b.N == 1 {
		return dst
	}
	if b.W == 0 {
		for i := int16(1); i < b.N; i++ {
			dst = append(dst, b.First)
		}
		return dst
	}
	payload = payload[:8*b.Words()]
	width := uint(b.W)
	mask := uint64(1)<<width - 1
	bit := 0
	prev := b.First
	for i := int16(1); i < b.N; i++ {
		w := bit >> 6 << 3
		z := binary.LittleEndian.Uint64(payload[w:]) >> (uint(bit) & 63)
		if spill := bit&63 + int(width) - 64; spill > 0 {
			z |= binary.LittleEndian.Uint64(payload[w+8:]) << (width - uint(spill))
		}
		prev += unzigzag(uint32(z & mask))
		dst = append(dst, prev)
		bit += int(width)
	}
	return dst
}

// UnpackInto appends every value of l to dst and returns it.
func (a *PackedLists) UnpackInto(l List, dst []int32) []int32 {
	for _, b := range a.Blocks(l) {
		dst = a.DecodeBlock(b, dst)
	}
	return dst
}

// SpaceWords returns the arena footprint in 64-bit words (payload plus block
// metadata at 2 words per block — the unit the space audits use).
func (a *PackedLists) SpaceWords() int64 {
	return int64(len(a.words)) + 2*int64(len(a.blocks))
}

// NumBlocks returns the total block count across all lists in the arena.
func (a *PackedLists) NumBlocks() int { return len(a.blocks) }

// PackDeltas packs one sequence into a fresh single-list arena — the
// round-trip helper form of the codec (see also PackedLists.Append for
// arena-shared packing).
func PackDeltas(ids []int32) (*PackedLists, List) {
	a := &PackedLists{}
	return a, a.Append(ids)
}

// UnpackDeltas decodes a list packed by PackDeltas (or Append) into a fresh
// slice; it is the round-trip inverse used by the fuzz harness.
func UnpackDeltas(a *PackedLists, l List) []int32 {
	if l.N == 0 {
		return nil
	}
	return a.UnpackInto(l, make([]int32, 0, l.N))
}

// Validate checks a handle against the arena it claims to index — untrusted
// handles (e.g. decoded from disk) must pass before DecodeBlock touches the
// word slice.
func (a *PackedLists) Validate(l List) error {
	if l.Block < 0 || l.NumBlocks < 0 || int(l.Block)+int(l.NumBlocks) > len(a.blocks) {
		return fmt.Errorf("bitpack: list blocks [%d,%d) out of arena range %d", l.Block, l.Block+l.NumBlocks, len(a.blocks))
	}
	var n int32
	for _, b := range a.Blocks(l) {
		if b.N < 1 || b.N > BlockSize {
			return fmt.Errorf("bitpack: block count %d outside [1,%d]", b.N, BlockSize)
		}
		if b.W > 32 {
			return fmt.Errorf("bitpack: delta width %d exceeds 32", b.W)
		}
		if need := int64(b.Words()); b.Off < 0 || int64(b.Off)+need > int64(len(a.words)) {
			return fmt.Errorf("bitpack: block payload [%d,%d) out of arena range %d", b.Off, int64(b.Off)+need, len(a.words))
		}
		n += int32(b.N)
	}
	if n != l.N {
		return fmt.Errorf("bitpack: handle claims %d values, blocks hold %d", l.N, n)
	}
	return nil
}

// zigzag maps a signed delta to an unsigned code with small magnitudes near
// zero (0,-1,1,-2,... -> 0,1,2,3,...), so ascending lists cost the same bits
// as their positive gaps plus one.
func zigzag(d int32) uint32 { return uint32(d<<1) ^ uint32(d>>31) }

func unzigzag(z uint32) int32 { return int32(z>>1) ^ -int32(z&1) }
