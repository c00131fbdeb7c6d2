package bitpack

import "math"

// Cursor walks one ascending id list during an intersection, answering
// "the smallest id >= target at or after my position" for non-decreasing
// targets. Over a packed list it gallops on the block directory's maxima,
// answers from a block's First when it can, and decodes a block's payload
// only when the block's [First, Max] window straddles the target; over a raw
// []int32 (the framework's sparse materialized lists) the whole list plays the
// part of one decoded block. It is the one cursor of the in-memory layouts:
// the framework's stop-node intersection (core) walks materialized lists
// with it.
//
// A Cursor holds its decode scratch inline, so it allocates nothing and must
// not be copied between Reset and its last Seek.
type Cursor struct {
	a      *PackedLists // nil over a raw list
	blocks []Block      // nil over a raw list
	n      int          // list length
	bi     int          // current block
	dec    int          // block vals holds in full, -1 for none
	pos    int          // resume position in vals
	max    int32        // Max of the block vals came from
	vals   []int32      // the run being searched: ids of the current block, or the whole raw list
	buf    [BlockSize]int32
}

// Reset positions the cursor at the start of packed list l of arena a.
func (c *Cursor) Reset(a *PackedLists, l List) {
	c.a, c.blocks, c.n = a, a.Blocks(l), int(l.N)
	c.bi, c.dec, c.pos, c.vals = 0, -1, 0, nil
}

// ResetRaw positions the cursor at the start of an ascending id slice, which
// it aliases until the next Reset or Release.
func (c *Cursor) ResetRaw(ids []int32) {
	c.a, c.blocks, c.n = nil, nil, len(ids)
	c.bi, c.dec, c.pos, c.max, c.vals = 0, -1, 0, math.MaxInt32, ids
}

// Release drops the cursor's references to list memory, so a pooled cursor
// keeps no index alive.
func (c *Cursor) Release() { c.a, c.blocks, c.vals = nil, nil, nil }

// Len returns the length of the list the cursor walks.
func (c *Cursor) Len() int { return c.n }

// Seek returns the smallest id >= target the list holds at or after the
// cursor's position, or false once the list is exhausted. Targets must not
// decrease between calls. Every id returned from a packed block lies in the
// block's [First, Max] window and is >= target even when the payload is not
// ascending (a corrupt image): such a block yields a subset of its ids, and
// the cursor still only moves forward.
func (c *Cursor) Seek(target int32) (int32, bool) {
	for {
		// Lists about as dense as each other leap an id or two at a time,
		// in no pattern a branch predictor can learn: counting how many of
		// the next four values fall short of target lands most seeks without
		// a data-dependent branch. Whatever that leaves — a longer leap, the
		// tail of the run, a payload out of order — is the gallop's.
		vals := c.vals
		lo, n := c.pos, len(vals)
		if lo+4 <= n {
			w := vals[lo : lo+4 : lo+4]
			lo += less(w[0], target) + less(w[1], target) + less(w[2], target) + less(w[3], target)
		}
		if lo < n && vals[lo] < target {
			step := 1 // vals[lo] < target throughout
			for lo+step < n && vals[lo+step] < target {
				lo += step
				step <<= 1
			}
			hi := min(lo+step, n) // n, or an index whose value was seen >= target
			lo++
			for lo < hi {
				if mid := int(uint(lo+hi) >> 1); vals[mid] < target {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
		}
		c.pos = lo
		if lo < n && vals[lo] <= c.max {
			return vals[lo], true
		}
		if !c.load(target) {
			return 0, false
		}
	}
}

// load makes vals the ids of the first block, at or after the current one,
// that can hold target, and reports false when there is none (always, over a
// raw list). A block whose First already answers the seek is not decoded:
// vals is then that one id, and a later seek into the block decodes the rest.
func (c *Cursor) load(target int32) bool {
	if c.dec == c.bi {
		c.bi++ // the decoded block is used up
	}
	if c.bi < len(c.blocks) && c.blocks[c.bi].Max < target {
		c.skipBlocks(target)
	}
	if c.bi >= len(c.blocks) {
		return false
	}
	blk := &c.blocks[c.bi]
	c.max, c.pos = blk.Max, 0
	if target <= blk.First {
		c.buf[0] = blk.First
		c.vals = c.buf[:1]
	} else {
		c.vals = c.a.DecodeBlock(*blk, c.buf[:0])
		c.dec = c.bi
	}
	return true
}

// skipBlocks moves bi to the first later block whose Max >= target (or past
// the end), galloping over the directory: maxima ascend across a sorted
// list's blocks, and no block in between is decoded.
func (c *Cursor) skipBlocks(target int32) {
	blocks := c.blocks
	lo, step := c.bi, 1 // blocks[lo].Max < target throughout
	for lo+step < len(blocks) && blocks[lo+step].Max < target {
		lo += step
		step <<= 1
	}
	hi := min(lo+step, len(blocks))
	for lo+1 < hi {
		if mid := int(uint(lo+hi) >> 1); blocks[mid].Max < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	c.bi = hi
}

// less is 1 when a < b and 0 otherwise, which the compiler sets from the
// comparison's flag without branching.
func less(a, b int32) int {
	if a < b {
		return 1
	}
	return 0
}
