package codec

// This file is the section-id registry of every KWCP2 container: the
// checkpoint's, the flat image's and the dataset file's, told apart by
// PagedMeta.Kind. internal/core owns the first two formats — it writes,
// opens and validates them — and names their sections by these ids; the
// dataset file (codec.go) stores a dataset in the three sections a flat
// image stores its rows in.

// Section IDs of a snapshot checkpoint (PagedKindSnapshot; SecPageCRC is the
// container's own table). The rows by rank are in the kd leaf order of
// core's checkpoint.go, whose tree SecTreeSpans and SecTreeBoxes store cut
// at one cell.
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
// carried in SecFlatMeta. An image of any other version is refused at open
// by one version check: images are rebuilt, not migrated.
const FlatImageVersion = 6

// Section IDs of a flat-index KWCP2 container (PagedKindFlatORPKW or
// PagedKindFlatSPKW). Sections 12-28 and 35-39 are the framework's
// independent columns (BFS node order; objects named by rank, their position
// in the tree's leaf order), 30-32 its rows by rank: the objects as a
// checkpoint's SecPoints, SecDocStart and SecDocWords store them, at the
// coordinates queries compare. No section holds what the others determine — a node's first child, rank interval, large-keyword
// count, tensor stride and offset, a list's start in its arena, a node's
// box: core derives them at build and at open. internal/core owns the image:
// its flatColumns pairs each id with its column, and its save and open loop
// over that table.
const (
	SecFlatMeta       = 10 // []uint64 {splitterKind, pdim, numNodes, FlatImageVersion}
	SecFlatNu         = 12 // []int64 node weights
	SecFlatChildCount = 15 // []int32
	SecFlatPivotCount = 16 // []int32: a node's pivots are the first ranks of its interval
	SecFlatLargeStart = 18 // []int32, numNodes+1 prefix offsets
	SecFlatLargeKeys  = 19 // []uint32, sorted per node
	SecFlatLargeIdx   = 20 // []int32 tensor axis indexes
	SecFlatMatStart   = 21 // []int32, numNodes+1 prefix offsets
	SecFlatMatKeys    = 22 // []uint32, sorted per node
	SecFlatTensorWrds = 28 // []uint64 non-emptiness bit arrays, ceil(L^k/64) words per child of each internal node
	SecFlatPoints     = 30 // []float64 by rank, n x pdim: the coordinates queries compare
	SecFlatDocStart   = 31 // []int64 by rank, n+1 prefix offsets into SecFlatDocWords
	SecFlatDocWords   = 32 // []uint32 concatenated sorted documents, by rank
	SecFlatRankIDs    = 35 // []int32 rank -> dataset id, a permutation of [0, n)
	SecFlatMatBits    = 37 // []uint64 bitmap lists, ceil(span/64) words each, bit i = the interval's i-th rank
	SecFlatMatRanks   = 38 // []int32 sparse lists, strictly ascending ranks of the node's interval
	SecFlatMatHandles = 39 // []int32 pairs {n, rep}: rep 0 names n ranks of SecFlatMatRanks, rep 1 a bitmap of SecFlatMatBits
)

// Retired section ids: each held a section an older version wrote and none
// reads now, and no live section of its kind takes it again. A checkpoint's
// 9 held rank -> entry (SecRankEntry, kept to build refused files) and 10 its
// cell boxes. A flat image's 11 held kd cells, 33 and 34 ORPKW's rank tables
// (version 3), 13, 14, 23, 26, 27 and 36 the large-keyword counts, first
// children, {start, n, rep} list handles, tensor offsets, tensor strides and
// interval starts (version 4), and 29 the coordinates by rank beside the
// points by id in 30 (version 5).
var (
	retiredSnapshotIDs = []uint32{9, 10}
	retiredFlatIDs     = []uint32{11, 13, 14, 23, 26, 27, 29, 33, 34, 36}
)
