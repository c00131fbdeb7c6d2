package codec

// This file is the section-id registry of every KWCP2 container: the
// checkpoint's and the flat image's, told apart by PagedMeta.Kind.
// internal/core owns both formats — it writes, opens and validates them —
// and names their sections by these ids.

// Section IDs of a snapshot checkpoint (PagedKindSnapshot; SecPageCRC is the
// container's own table). The rows by rank are in the kd leaf order of
// core's checkpoint.go, whose tree SecTreeSpans and SecTreeBoxes store cut
// at one cell. Id 10 held one box per cell of ranks in the cell-snapped
// order before; it is retired, never read and never reused.
const (
	SecPageCRC    = 0
	SecHandles    = 1  // []int64 by entry: strictly increasing, count values
	SecPoints     = 2  // []float64 by rank, count x dim, row-major
	SecDocStart   = 3  // []int64 by rank, count+1 prefix offsets into SecDocWords
	SecDocWords   = 4  // []uint32, concatenated sorted documents, by rank
	SecVocab      = 5  // []uint32, sorted distinct keywords
	SecPostLists  = 6  // []int32 triples {block, numBlocks, n} per vocab entry
	SecPostBlocks = 7  // []int32 quads {off, first, max, n|w<<16} per block, ids are ranks
	SecPostWords  = 8  // []uint64 bitpack payload
	SecRankEntry  = 9  // retired: rank -> entry beside entry-ordered documents; never read, never reused
	SecRowHandles = 11 // []int64 by rank: rank -> handle
	SecEntryRank  = 12 // []int32 by entry: entry -> rank, a permutation of [0, count)
	SecTreeSpans  = 13 // []int32, the rank span of each stored kd tree node, preorder
	SecTreeBoxes  = 14 // []float64, 2*dim per stored node: Lo then Hi
)

// FlatImageVersion is the version of the flat-index section set below,
// carried in SecFlatMeta. Version 1 (object ids in every column, explicit
// pivot id lists, no version field), version 2 (sparse lists as delta-packed
// blocks) and version 3 (stored kd cells and, for ORPKW, rank tables) are
// refused at open, each by name: images are rebuilt, not migrated.
const FlatImageVersion = 4

// Section IDs of a flat-index KWCP2 container (PagedKindFlatORPKW or
// PagedKindFlatSPKW). Sections 10-29 and 35-38 are the framework's columns
// (BFS node order; objects named by rank, their position in the tree's leaf
// order), 30-32 the dataset image. No section carries a node's box: open
// derives it from SecFlatCoords. Ids 11 (kd cells), 33 and 34 (ORPKW rank
// tables) were version 3's and are never reused. internal/core owns the
// image: its flatColumns pairs each id with its column, and its save and
// open loop over that table.
const (
	SecFlatMeta       = 10 // []uint64 {splitterKind, pdim, numNodes, FlatImageVersion}
	SecFlatNu         = 12 // []int64 node weights
	SecFlatL          = 13 // []int32 large-keyword counts
	SecFlatChildFirst = 14 // []int32
	SecFlatChildCount = 15 // []int32
	SecFlatPivotCount = 16 // []int32: node u's pivots are ranks [rankLo[u], rankLo[u]+count)
	SecFlatLargeStart = 18 // []int32, numNodes+1 prefix offsets
	SecFlatLargeKeys  = 19 // []uint32, sorted per node
	SecFlatLargeIdx   = 20 // []int32 tensor axis indexes
	SecFlatMatStart   = 21 // []int32, numNodes+1 prefix offsets
	SecFlatMatKeys    = 22 // []uint32, sorted per node
	SecFlatMatLists   = 23 // []int32 triples {start, n, rep}: rep 0 names n ranks at SecFlatMatRanks[start], rep 1 a bitmap at word start of SecFlatMatBits
	SecFlatTensorOff  = 26 // []int64 word offsets per node
	SecFlatTensorStr  = 27 // []int64 word strides per node
	SecFlatTensorWrds = 28 // []uint64 non-emptiness bit arrays
	SecFlatCoords     = 29 // []float64 the coordinates queries compare, by rank, n x pdim; for ORPKW the dataset's points
	SecFlatPoints     = 30 // []float64 dataset points, n x dim
	SecFlatDocStart   = 31 // []int64, n+1 prefix offsets
	SecFlatDocWords   = 32 // []uint32 concatenated sorted documents
	SecFlatRankIDs    = 35 // []int32 rank -> dataset id, a permutation of [0, n)
	SecFlatRankLo     = 36 // []int32 first rank of each node's interval
	SecFlatMatBits    = 37 // []uint64 bitmap lists, ceil(span/64) words each, bit i = rank rankLo+i
	SecFlatMatRanks   = 38 // []int32 sparse lists, strictly ascending ranks of the node's interval
)
