package codec

// FlatImageVersion is the version of the flat-index section set below,
// carried in SecFlatMeta. Version 1 (object ids in every column, explicit
// pivot id lists, no version field) and version 2 (sparse lists as
// delta-packed blocks) are refused at open: images are rebuilt, not migrated.
const FlatImageVersion = 3

// Section IDs of a flat-index KWCP2 container (PagedKindFlatORPKW or
// PagedKindFlatSPKW). Sections 10-29 and 35-38 are the FlatArenas columns of
// internal/core (BFS node order; objects named by rank, their position in
// the tree's leaf order), 30-32 the dataset image, 33-34 the rank tables
// (ORPKW only). internal/flatio owns the read/write paths; the IDs live here
// so every KWCP2 section registry is in one place.
const (
	SecFlatMeta       = 10 // []uint64 {splitterKind, pdim, numNodes, FlatImageVersion}
	SecFlatCells      = 11 // []float64, 2*pdim per node: Lo then Hi
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
	SecFlatCoords     = 29 // []float64 partitioning coordinates by rank, n x pdim
	SecFlatPoints     = 30 // []float64 dataset points, n x dim
	SecFlatDocStart   = 31 // []int64, n+1 prefix offsets
	SecFlatDocWords   = 32 // []uint32 concatenated sorted documents
	SecFlatRankSorted = 33 // []float64 rank tables, dim x n (ORPKW only)
	SecFlatRankRanks  = 34 // []int32 rank tables, dim x n (ORPKW only)
	SecFlatRankIDs    = 35 // []int32 rank -> dataset id, a permutation of [0, n)
	SecFlatRankLo     = 36 // []int32 first rank of each node's interval
	SecFlatMatBits    = 37 // []uint64 bitmap lists, ceil(span/64) words each, bit i = rank rankLo+i
	SecFlatMatRanks   = 38 // []int32 sparse lists, strictly ascending ranks of the node's interval
)

// Exported little-endian column codecs for sibling packages that assemble
// their own KWCP2 section payloads (internal/flatio). Put* allocates the
// byte image; Get* decodes a fresh slice (zero-copy readers use
// pager.Cast* on mapped bytes instead).

// PutU32s encodes v little-endian.
func PutU32s(v []uint32) []byte { return putU32s(v) }

// PutI32s encodes v little-endian.
func PutI32s(v []int32) []byte { return putI32s(v) }

// PutU64s encodes v little-endian.
func PutU64s(v []uint64) []byte { return putU64s(v) }

// PutI64s encodes v little-endian.
func PutI64s(v []int64) []byte { return putI64s(v) }

// PutF64s encodes v little-endian (IEEE 754 bits).
func PutF64s(v []float64) []byte { return putF64s(v) }

// GetU32s decodes a little-endian column; len(b) must be a multiple of 4.
func GetU32s(b []byte) []uint32 { return getU32s(b) }

// GetI32s decodes a little-endian column; len(b) must be a multiple of 4.
func GetI32s(b []byte) []int32 { return getI32s(b) }

// GetU64s decodes a little-endian column; len(b) must be a multiple of 8.
func GetU64s(b []byte) []uint64 { return getU64s(b) }

// GetI64s decodes a little-endian column; len(b) must be a multiple of 8.
func GetI64s(b []byte) []int64 { return getI64s(b) }

// GetF64s decodes a little-endian column; len(b) must be a multiple of 8.
func GetF64s(b []byte) []float64 { return getF64s(b) }
