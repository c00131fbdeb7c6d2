// Package kwsc implements the indexes of Lu & Tao, "Indexing for Keyword
// Search with Structured Constraints" (PODS 2023): data structures that
// answer queries combining keyword search (find the objects whose documents
// contain all k supplied keywords) with structured geometric predicates —
// orthogonal ranges, rectangle intersection, linear constraints, spheres,
// and nearest-neighbor prioritization — in time O(N^{1-1/k} (1 + OUT^{1/k}))
// rather than the Theta(N) of the two naive strategies.
//
// # Data model
//
// The input is a set D of objects; each object carries a point in R^d and a
// non-empty document, a set of integer keywords. The input size is
// N = sum |e.Doc|. A query supplies a structured predicate plus k >= 2
// distinct keywords and returns the objects satisfying both. Indexes fix k
// at construction time.
//
// # Index catalog (Table 1 of the paper)
//
//	NewORPKW        orthogonal range reporting, d <= 2 (Theorem 1)
//	NewORPKWHigh    orthogonal range reporting, d >= 3 (Theorem 2)
//	NewRRKW         rectangle-intersection reporting (Corollary 3)
//	NewLinfNN       L∞ nearest neighbors (Corollary 4)
//	NewLCKW         linear-conjunction / simplex reporting (Theorems 5, 12)
//	NewSRPKW        spherical range reporting (Corollary 6)
//	NewL2NN         L2 nearest neighbors on integer grids (Corollary 7)
//	NewKSI          pure k-set-intersection reporting (Section 1.2)
//
// Baselines for comparison (the pre-paper state of the art): an inverted
// index with posting-list intersection (NewInvertedIndex) and a plain
// geometric index followed by keyword filtering (NewStructuredOnly).
//
// # Quickstart
//
//	objs := []kwsc.Object{
//		{Point: kwsc.Point{120, 8.7}, Doc: []kwsc.Keyword{pool, parking}},
//		...
//	}
//	ds, _ := kwsc.NewDataset(objs)
//	ix, _ := kwsc.NewORPKW(ds, 2) // queries will carry 2 keywords
//	ids, _, _ := ix.Collect(kwsc.NewRect(
//		[]float64{100, 8}, []float64{200, 10}), // price, rating ranges
//		[]kwsc.Keyword{pool, parking}, kwsc.QueryOpts{})
//
// Beyond the static indexes, the package grows the paper's structures into a
// small system: mutable indexes (NewDynamicORPKW), crash-safe durability
// (OpenDurable), WAL-shipping read replicas with measured staleness
// (StartReplica), out-of-core paged images (OpenPagedORPKW), and a sharded
// replica-aware HTTP service (cmd/kwscd).
//
// See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
// measured reproduction of the paper's complexity claims.
package kwsc

import (
	"context"
	"fmt"
	"io"

	"kwsc/internal/bitpack"
	"kwsc/internal/codec"
	"kwsc/internal/core"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/invidx"
	"kwsc/internal/spart"
	"kwsc/internal/twosi"
)

// Re-exported data-model types.
type (
	// Keyword is an integer keyword; documents are sets of keywords.
	Keyword = dataset.Keyword
	// Object is one input element: a point plus its document.
	Object = dataset.Object
	// Dataset is a validated input instance (see NewDataset).
	Dataset = dataset.Dataset
	// Point is a point in R^d.
	Point = geom.Point
	// Rect is a closed d-rectangle, possibly with infinite bounds.
	Rect = geom.Rect
	// Halfspace is a linear constraint sum c_i x_i <= b.
	Halfspace = geom.Halfspace
	// Polyhedron is an intersection of halfspaces.
	Polyhedron = geom.Polyhedron
	// Simplex is a d-simplex given by d+1 vertices.
	Simplex = geom.Simplex
	// Sphere is a closed L2 ball.
	Sphere = geom.Sphere
	// Region is any query region (Rect, Polyhedron, Sphere, FullSpace).
	Region = geom.Region
	// FullSpace is the region covering all of R^d (pure keyword search).
	FullSpace = geom.FullSpace
)

// Re-exported index types; constructors below document each.
type (
	// ORPKW answers orthogonal-range + keywords queries (Theorem 1).
	ORPKW = core.ORPKW
	// ORPKWHigh is ORP-KW for d >= 3 via dimension reduction (Theorem 2).
	ORPKWHigh = core.ORPKWHigh
	// RRKW answers rectangle-intersection + keywords queries (Corollary 3).
	RRKW = core.RRKW
	// RectObject is RR-KW's input element: a rectangle plus a document.
	RectObject = core.RectObject
	// LCKW answers linear-conjunction/simplex + keywords queries
	// (Theorems 5 and 12). It is the SP-KW index of Appendix D.
	LCKW = core.SPKW
	// LCKWConfig tunes LC-KW construction (substrate, lifted points).
	LCKWConfig = core.SPKWConfig
	// SRPKW answers sphere + keywords queries via lifting (Corollary 6).
	SRPKW = core.SRPKW
	// LinfNN answers t-nearest-neighbor + keywords queries under L∞
	// (Corollary 4).
	LinfNN = core.LinfNN
	// L2NN answers t-nearest-neighbor + keywords queries under L2 on
	// integer coordinates (Corollary 7).
	L2NN = core.L2NN
	// KSI answers pure k-set-intersection queries (Section 1.2).
	KSI = core.KSI
	// NNResult is one reported neighbor: object id and distance.
	NNResult = core.NNResult
	// NNStats instruments a nearest-neighbor search.
	NNStats = core.NNStats
	// QueryOpts carries optional result limits and work budgets.
	QueryOpts = core.QueryOpts
	// QueryStats instruments one query (visited/covered/crossing nodes,
	// work units, truncation flags).
	QueryStats = core.QueryStats
	// SpaceBreakdown is the analytic space audit of an index.
	SpaceBreakdown = core.SpaceBreakdown
	// InvertedIndex is the keywords-only naive baseline.
	InvertedIndex = invidx.Index
	// StructuredOnly is the geometry-only naive baseline.
	StructuredOnly = core.StructuredOnly
)

// NewDataset validates objects (non-empty documents, consistent dimensions)
// and copies them into a dataset whose documents are sorted and
// de-duplicated; objs itself is left as passed.
func NewDataset(objs []Object) (*Dataset, error) { return dataset.New(objs) }

// NewRect returns the closed rectangle with the given bounds; use math.Inf
// for half-open ranges.
func NewRect(lo, hi []float64) *Rect { return geom.NewRect(lo, hi) }

// NewSphere returns the closed ball with the given center and radius.
func NewSphere(center Point, radius float64) *Sphere { return geom.NewSphere(center, radius) }

// NewSimplex returns the d-simplex with the given d+1 vertices.
func NewSimplex(v ...Point) *Simplex { return geom.NewSimplex(v...) }

// NewPolyhedron returns the intersection of the given halfspaces.
func NewPolyhedron(hs ...Halfspace) *Polyhedron { return geom.NewPolyhedron(hs...) }

// BuildOpts tunes index construction. The zero value builds subtrees in
// parallel across every core; Parallelism: 1 forces a sequential build.
// Parallel and sequential builds produce indexes that answer every query
// identically. Most callers pass Option values to the constructors instead
// of filling this struct.
type BuildOpts = core.BuildOpts

// Option is a functional construction option accepted by every index
// constructor: NewORPKW(ds, k, WithParallelism(4), WithTracer(t)).
type Option = core.BuildOption

// WithParallelism caps the number of goroutines a build may use; 1 forces a
// sequential build.
func WithParallelism(p int) Option { return core.WithParallelism(p) }

// WithTracer installs a per-index tracer: every query span the index emits
// goes to t in addition to any process-wide tracer (SetTracer).
func WithTracer(t Tracer) Option { return core.WithTracer(t) }

// WithoutObs excludes the index from the metrics registry, tracing, and the
// slow-query log (e.g. shadow indexes that must stay invisible to
// monitoring).
func WithoutObs() Option { return core.WithoutObs() }

// NewORPKW builds the Theorem 1 index: O(N) space and
// O(N^{1-1/k} (1 + OUT^{1/k})) query time for d <= 2 (any d is accepted;
// for d >= 3 prefer NewORPKWHigh, whose query bound is dimension-free).
func NewORPKW(ds *Dataset, k int, opts ...Option) (*ORPKW, error) {
	return core.BuildORPKW(ds, k, opts...)
}

// NewORPKWHigh builds the Theorem 2 index for d >= 3:
// O(N (log log N)^{d-2}) space, O(N^{1-1/k} (1 + OUT^{1/k})) query time.
func NewORPKWHigh(ds *Dataset, k int, opts ...Option) (*ORPKWHigh, error) {
	return core.BuildORPKWHigh(ds, k, opts...)
}

// NewRRKW builds the Corollary 3 index over d-rectangles; queries report
// the data rectangles intersecting a query rectangle that carry all k
// keywords.
func NewRRKW(rects []RectObject, k int, opts ...Option) (*RRKW, error) {
	return core.BuildRRKW(rects, k, opts...)
}

// NewLCKW builds the Theorem 5 / Theorem 12 index: linear-conjunction and
// simplex reporting with keywords. The zero config selects the default
// substrate (Willard partition tree for d = 2, box tree otherwise); Option
// values apply on top of cfg.Build.
func NewLCKW(ds *Dataset, cfg LCKWConfig, opts ...Option) (*LCKW, error) {
	cfg.Build = cfg.Build.With(opts...)
	return core.BuildSPKW(ds, cfg)
}

// NewSRPKW builds the Corollary 6 index: spherical range reporting with
// keywords via the lifting transformation.
func NewSRPKW(ds *Dataset, k int, opts ...Option) (*SRPKW, error) {
	return core.BuildSRPKW(ds, k, opts...)
}

// NewLinfNN builds the Corollary 4 index: t nearest neighbors under L∞
// among the objects carrying all k keywords.
func NewLinfNN(ds *Dataset, k int, opts ...Option) (*LinfNN, error) {
	return core.BuildLinfNN(ds, k, opts...)
}

// NewL2NN builds the Corollary 7 index: t nearest neighbors under L2 among
// the objects carrying all k keywords; coordinates must be integers.
func NewL2NN(ds *Dataset, k int, opts ...Option) (*L2NN, error) {
	return core.BuildL2NN(ds, k, opts...)
}

// NewKSI builds the Section 1.2 index over explicit sets: reporting and
// emptiness queries on the intersection of any k of them.
func NewKSI(sets [][]int64, k int, opts ...Option) (*KSI, error) {
	return core.BuildKSI(sets, k, opts...)
}

// NewKSIFromDataset treats a dataset's documents as the sets and indexes
// pure keyword search over them.
func NewKSIFromDataset(ds *Dataset, k int, opts ...Option) (*KSI, error) {
	return core.BuildKSIFromDataset(ds, k, opts...)
}

// checkDataset rejects datasets no index constructor can use, with an error
// matching ErrInvalidDataset.
func checkDataset(ds *Dataset) error {
	if ds == nil {
		return fmt.Errorf("%w: nil dataset", ErrInvalidDataset)
	}
	if ds.Len() == 0 {
		return fmt.Errorf("%w: empty dataset", ErrInvalidDataset)
	}
	return nil
}

// NewInvertedIndex builds the keywords-only naive baseline.
func NewInvertedIndex(ds *Dataset) (*InvertedIndex, error) {
	if err := checkDataset(ds); err != nil {
		return nil, err
	}
	return invidx.Build(ds), nil
}

// NewStructuredOnly builds the geometry-only naive baseline (a plain
// space-partitioning tree followed by keyword filtering).
func NewStructuredOnly(ds *Dataset) (*StructuredOnly, error) {
	if err := checkDataset(ds); err != nil {
		return nil, err
	}
	return core.BuildStructuredOnly(ds, nil), nil
}

// Universe returns the rectangle covering all of R^d (e.g. to run a pure
// keyword query against a rectangle index).
func Universe(d int) *Rect { return geom.UniverseRect(d) }

// internal splitters re-exported for the ablation configuration of NewLCKW.
type (
	// WillardSplitter is the default d=2 partition-tree substrate.
	WillardSplitter = spart.Willard2D
	// GridSplitter is the slab-grid ablation substrate (DESIGN.md E6b).
	GridSplitter = spart.Grid2D
	// BoxSplitter is the general-dimension box substrate.
	BoxSplitter = spart.Box
	// KDSplitter is the kd-tree substrate of Theorem 1.
	KDSplitter = spart.KD
)

// NewDynamicORPKW creates an empty insert/delete-capable ORP-KW index via
// the logarithmic method (Bentley–Saxe) over the static Theorem 1 structure
// — an extension beyond the paper, which is static-only. bufferCap tunes the
// unindexed write buffer (0 selects the default).
//
// The index is safe for concurrent use: mutators serialize on an internal
// writer mutex and publish each new state with one atomic store, while
// queries and accessors run lock-free against the last published state and
// never wait on a writer. SnapshotNow pins a DynSnapshot for repeatable
// reads across later mutations. See DESIGN.md §13.
func NewDynamicORPKW(dim, k, bufferCap int, opts ...Option) (*DynamicORPKW, error) {
	return core.NewDynamicORPKW(dim, k, bufferCap, opts...)
}

// NewTwoSI builds the Cohen–Porat-style 2-set-intersection index over a
// dataset's documents: the O(N)-space, O(sqrt(N) (1 + sqrt(OUT)))-query
// structure Section 3.5 of the paper credits as the framework's inspiration.
func NewTwoSI(ds *Dataset) (*TwoSI, error) {
	if err := checkDataset(ds); err != nil {
		return nil, err
	}
	return twosi.Build(ds), nil
}

// NewWordParallel1D builds the word-parallel one-dimensional range+keywords
// index of the literature line reviewed in the paper's Section 2 (Bille et
// al. / Goodrich): per-keyword position bitmaps AND-ed 64 positions at a
// time. The dataset must be 1-dimensional; query arity is not fixed at
// build time.
func NewWordParallel1D(ds *Dataset) (*WordParallel1D, error) {
	if err := checkDataset(ds); err != nil {
		return nil, err
	}
	return bitpack.Build(ds)
}

// Extension and baseline index types.
type (
	// DynamicORPKW is the insert/delete-capable ORP-KW index.
	DynamicORPKW = core.DynamicORPKW
	// DynSnapshot is a pinned, immutable view of a dynamic index (from
	// DynamicORPKW.SnapshotNow or DurableORPKW.Snapshot): queries against it
	// are repeatable no matter how much churn lands after the pin, and Seq()
	// identifies the exact operation prefix it reflects.
	DynSnapshot = core.DynSnapshot
	// TwoSI is the Cohen–Porat-style 2-set-intersection structure.
	TwoSI = twosi.Index
	// WordParallel1D is the bitmap-based 1D range+keywords index.
	WordParallel1D = bitpack.Index
)

// MultiK answers rectangle+keywords queries of any arity in [1, KMax] by
// maintaining one index per arity (the paper fixes k per index; this wrapper
// trades an O(KMax) space factor for arity freedom).
type MultiK = core.MultiK

// NewMultiK builds indexes for every keyword arity in [2, kMax]; queries
// with one keyword use posting lists, queries beyond kMax filter through the
// kMax index.
func NewMultiK(ds *Dataset, kMax int, opts ...Option) (*MultiK, error) {
	return core.BuildMultiK(ds, kMax, opts...)
}

// WriteDataset serializes a dataset to w in the library's compact,
// checksummed binary format; ReadDataset restores it. Indexes are rebuilt
// from data on load (construction is near-linear).
func WriteDataset(w io.Writer, ds *Dataset) error { return codec.WriteDataset(w, ds) }

// ReadDataset deserializes a dataset written by WriteDataset, verifying its
// checksum.
func ReadDataset(r io.Reader) (*Dataset, error) { return codec.ReadDataset(r) }

// Vocabulary maps string keywords to the dense integer ids the indexes
// operate on — the paper's "w.l.o.g. keywords are integers in [1, W]"
// (Section 3.2) made concrete for documents made of words.
type Vocabulary = dataset.Vocabulary

// NewVocabulary returns an empty vocabulary; use ID/Doc to intern words.
func NewVocabulary() *Vocabulary { return dataset.NewVocabulary() }

// Batch query plumbing: static indexes are concurrency-safe for readers, so
// ORPKW.QueryBatch / ORPKWHigh.QueryBatch answer many queries in parallel.
type (
	// RectQuery is one query of a batch.
	RectQuery = core.RectQuery
	// BatchResult is the outcome of one batch query.
	BatchResult = core.BatchResult
)

// Planner routes each rectangle+keywords query to the cheapest of the three
// strategies — the paper's index, the posting-list scan, or the geometric
// filter — using the paper's own cost formulas as estimates. All routes
// return identical results.
type (
	// Plan records one routing decision with per-strategy cost estimates.
	Plan = core.Plan
	// Route identifies a planner strategy.
	Route = core.Route
	// QueryPlanner is the cost-based router.
	QueryPlanner = core.Planner
)

// Planner route identifiers.
const (
	RouteFramework      = core.RouteFramework
	RouteKeywordsOnly   = core.RouteKeywordsOnly
	RouteStructuredOnly = core.RouteStructuredOnly
)

// NewPlanner builds all three strategies for k-keyword queries over the
// dataset.
func NewPlanner(ds *Dataset, k int, opts ...Option) (*QueryPlanner, error) {
	return core.BuildPlanner(ds, k, opts...)
}

// Resilience: every query accepts an ExecPolicy (via QueryOpts.Policy) bounding its execution by wall-clock deadline, node
// budget, result cap, and cancellation channel. A policy stop returns the
// results reported so far — a prefix of the full answer — together with a
// typed error (ErrDeadline, ErrBudget, ErrCanceled). Index-internal panics
// are converted to *PanicError values carrying the offending query, so a
// corrupted traversal cannot take the process down.
type (
	// ExecPolicy bounds one query's execution; the zero value imposes none.
	ExecPolicy = core.ExecPolicy
	// PanicError wraps a panic recovered inside an index, echoing the query.
	PanicError = core.PanicError
)

// Typed resilience and validation errors; match with errors.Is / errors.As.
var (
	// ErrDeadline reports a query stopped by its policy deadline.
	ErrDeadline = core.ErrDeadline
	// ErrBudget reports a query stopped by its policy node budget.
	ErrBudget = core.ErrBudget
	// ErrCanceled reports a query stopped by its policy Done channel.
	ErrCanceled = core.ErrCanceled
	// ErrInvalidQuery wraps every query-validation failure (NaN coordinates,
	// inverted rectangles, malformed keyword lists, arity mismatches).
	ErrInvalidQuery = core.ErrInvalidQuery
	// ErrInvalidDataset wraps every constructor rejection of an unusable
	// input (nil or empty dataset), so misuse fails loudly at build time.
	ErrInvalidDataset = core.ErrInvalidDataset
)

// PolicyFromContext derives an ExecPolicy from a context: its deadline (if
// any) and its cancellation channel. Compose further bounds by setting
// NodeBudget or MaxResults on the returned value.
func PolicyFromContext(ctx context.Context) ExecPolicy {
	p := ExecPolicy{Done: ctx.Done()}
	if dl, ok := ctx.Deadline(); ok {
		p.Deadline = dl
	}
	return p
}
