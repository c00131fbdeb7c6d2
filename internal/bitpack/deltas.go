// Package bitpack holds lists, blocks and cursors: the block format a
// checkpoint stores its posting lists in (core/checkpoint.go), and the one
// list cursor every rank list is intersected with (cursor.go).
//
// A list is an int32 sequence delta-encoded (zigzag, so unsorted sequences
// round-trip too) and bit-packed at a fixed per-block width into
// little-endian 64-bit words, in blocks of BlockSize values under a directory
// of per-block skip metadata (first value, max value, payload offset). A
// sorted rank list compresses to a few bits per entry, and the directory lets
// a Cursor skip a block on its Max and answer from its First, decoding a
// payload only when the block's [First, Max] window straddles the target.
package bitpack

import (
	"encoding/binary"
	"math/bits"
)

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
// the widest width a directory may claim (32 bits), in whole words.
const MaxBlockBytes = 8 * (((BlockSize-1)*32 + 63) / 64)

// List is a handle to one packed sequence inside a PackedLists arena.
type List struct {
	Block     int32 // index of the first block in the arena
	NumBlocks int32
	N         int32 // total values
}

// PackedLists is an arena of packed sequences: every payload in one byte
// slice, in the little-endian form a checkpoint stores (SecPostWords), and
// every block's metadata in one directory, so a set of posting lists is two
// allocations instead of one slice header per keyword.
type PackedLists struct {
	payload []byte // little-endian 64-bit words; Block.Off counts words
	blocks  []Block
}

// FromRaw reassembles an arena from its payload bytes and block directory
// (the inverse of Raw), for instance over a mapped posting section. Nothing
// is checked: the directory must have passed the checkpoint's posting
// check (core.parsePostings).
func FromRaw(payload []byte, blocks []Block) PackedLists {
	return PackedLists{payload: payload, blocks: blocks}
}

// Raw exposes the arena's payload bytes and block directory, for
// serialization. The slices alias the arena: treat them as read-only.
func (a *PackedLists) Raw() (payload []byte, blocks []Block) {
	return a.payload, a.blocks
}

// Append packs ids into the arena and returns the list handle. Any int32
// sequence is accepted (deltas are zigzag-encoded); an empty sequence
// returns a zero-block handle.
func (a *PackedLists) Append(ids []int32) List {
	l := List{Block: int32(len(a.blocks)), N: int32(len(ids))}
	for len(ids) > 0 {
		n := min(len(ids), BlockSize)
		a.appendBlock(ids[:n])
		ids = ids[n:]
		l.NumBlocks++
	}
	return l
}

// appendBlock packs one block of 1..BlockSize values.
func (a *PackedLists) appendBlock(ids []int32) {
	b := Block{
		Off:   int32(len(a.payload) / 8),
		First: ids[0],
		Max:   ids[0],
		N:     int16(len(ids)),
	}
	var width uint8
	prev := ids[0]
	for _, v := range ids[1:] {
		b.Max = max(b.Max, v)
		if w := uint8(bits.Len32(zigzag(v - prev))); w > width {
			width = w
		}
		prev = v
	}
	b.W = width
	if width > 0 {
		var words [MaxBlockBytes / 8]uint64
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
		for _, w := range words[:b.Words()] {
			a.payload = binary.LittleEndian.AppendUint64(a.payload, w)
		}
	}
	a.blocks = append(a.blocks, b)
}

// Blocks returns the block metadata of l (read-only view into the arena).
func (a *PackedLists) Blocks(l List) []Block {
	return a.blocks[l.Block : l.Block+l.NumBlocks]
}

// Span returns the payload bytes [off, off+n) of the arena, which makes an
// arena the Source of a Cursor over its own lists.
func (a *PackedLists) Span(off, n int64, _ []byte) []byte { return a.payload[off : off+n] }

// DecodeBlockBytes appends the values of block b to dst and returns it.
// payload holds the block's own 8*b.Words() payload bytes (b.Off is not
// consulted), wherever they were read from: an arena, a mapping, a pinned
// page. With cap(dst)-len(dst) >= BlockSize the call performs no allocation.
func DecodeBlockBytes(b Block, payload []byte, dst []int32) []int32 {
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

// zigzag maps a signed delta to an unsigned code with small magnitudes near
// zero (0,-1,1,-2,... -> 0,1,2,3,...), so ascending lists cost the same bits
// as their positive gaps plus one.
func zigzag(d int32) uint32 { return uint32(d<<1) ^ uint32(d>>31) }

func unzigzag(z uint32) int32 { return int32(z>>1) ^ -int32(z&1) }
