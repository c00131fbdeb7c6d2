package codec

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
// open loop over that table; the IDs live here so every KWCP2 section
// registry is in one place.
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
