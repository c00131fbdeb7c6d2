package kwsc

import (
	"kwsc/internal/core"
	"kwsc/internal/flatio"
	"kwsc/internal/wal"
)

// Out-of-core serving. Two paths put index bytes on disk in the paged KWCP2
// container format (page-aligned columns, per-page checksums) and serve them
// back through a mapping instead of a rebuild or a full decode:
//
//   - Static indexes: SavePagedORPKW / SavePagedLCKW persist a built
//     index; OpenPagedORPKW / OpenPagedLCKW map it and serve queries whose
//     results, stats, and stop points are byte-identical to the in-RAM
//     index. The big columns (coordinates, posting payloads, tensors) alias
//     the mapping, so the page cache is the only copy and datasets larger
//     than RAM stay servable.
//
//   - The durable index: checkpoints are always written in this format, and
//     WithPagedRecovery makes OpenDurable serve the newest checkpoint in
//     place — cold start becomes map + WAL-tail replay, with object payloads
//     faulted in on demand.
//
// See DESIGN.md §15 for the container format, the pinning buffer pool, and
// the checkpoint-retirement protocol.

// PagedFileOptions tunes how a paged index file is accessed.
type PagedFileOptions = flatio.Options

// PagedHandle owns the open file's reference; it must stay open for the
// returned index's lifetime and be closed exactly once afterwards.
type PagedHandle = flatio.Handle

// PagedBaseOptions tunes the paged checkpoint base of WithPagedRecovery:
// CapPages bounds resident pages in pread mode, NoMmap forces pread.
type PagedBaseOptions = core.PagedBaseOptions

// SavePagedORPKW persists an ORP-KW index as a paged container at path,
// atomically.
func SavePagedORPKW(path string, ix *ORPKW) error {
	return flatio.SaveFileORPKW(path, ix)
}

// OpenPagedORPKW maps a file written by SavePagedORPKW and returns a
// query-ready index without rebuilding. Options forward observability
// settings (WithTracer, WithoutObs); construction-time options are
// meaningless here. Close the handle when done with the index.
func OpenPagedORPKW(path string, o PagedFileOptions, opts ...Option) (*ORPKW, *PagedHandle, error) {
	return flatio.OpenORPKW(path, o, opts...)
}

// SavePagedLCKW persists an LC-KW index. The index must use a
// rectangle splitter (&kwsc.BoxSplitter{Dim: d}); the default d=2 Willard
// substrate has polygon cells with no serialized form and is refused.
func SavePagedLCKW(path string, ix *LCKW) error {
	return flatio.SaveFileSPKW(path, ix)
}

// OpenPagedLCKW maps a file written by SavePagedLCKW.
func OpenPagedLCKW(path string, o PagedFileOptions, opts ...Option) (*LCKW, *PagedHandle, error) {
	return flatio.OpenSPKW(path, o, opts...)
}

// WithPagedRecovery makes OpenDurable serve the newest checkpoint through
// the pager instead of decoding it: the checkpoint file becomes the dynamic
// index's immutable bottom layer, cold start is map + WAL-tail replay, and
// checkpoint pruning defers deletion of the serving file until the index
// releases it (Close).
func WithPagedRecovery(o PagedBaseOptions) DurableOption {
	return wal.WithPagedRecovery(o)
}
