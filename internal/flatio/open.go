package flatio

import (
	"fmt"

	"kwsc/internal/codec"
	"kwsc/internal/core"
	"kwsc/internal/dataset"
	"kwsc/internal/pager"
)

// OpenORPKW opens a container written by SaveORPKW and returns a
// query-ready index plus the handle that owns the file reference. Build
// options tune observability only (core.WithoutObs); nothing is rebuilt.
// On failure the file reference is released.
func OpenORPKW(path string, o Options, opts ...core.BuildOption) (*core.ORPKW, *Handle, error) {
	f, c, err := openContainer(path, o)
	if err != nil {
		return nil, nil, err
	}
	ix, err := openORPKWFrom(f, c, opts)
	if err != nil {
		f.Unref()
		return nil, nil, err
	}
	return ix, &Handle{f: f}, nil
}

// OpenSPKW opens a container written by SaveSPKW.
func OpenSPKW(path string, o Options, opts ...core.BuildOption) (*core.SPKW, *Handle, error) {
	f, c, err := openContainer(path, o)
	if err != nil {
		return nil, nil, err
	}
	ix, err := openSPKWFrom(f, c, opts)
	if err != nil {
		f.Unref()
		return nil, nil, err
	}
	return ix, &Handle{f: f}, nil
}

// adviseSkeleton hints WILLNEED on the tree-skeleton sections — the per-node
// columns every traversal touches from the first query — so they prefetch
// while the rest of the image (postings, tensors, coordinates) stays
// demand-paged. Best-effort; no-op off Linux.
func adviseSkeleton(f *pager.File, c *codec.Container) {
	skeleton := []uint32{
		codec.SecFlatMeta, codec.SecFlatNu, codec.SecFlatL,
		codec.SecFlatChildFirst, codec.SecFlatChildCount,
		codec.SecFlatPivotCount, codec.SecFlatRankLo,
	}
	for _, id := range skeleton {
		if off, n, ok := c.Section(id); ok {
			f.AdviseWillNeed(off, n)
		}
	}
}

func openORPKWFrom(f *pager.File, c *codec.Container, opts []core.BuildOption) (*core.ORPKW, error) {
	meta := codec.ParsePagedMeta(c.Meta)
	if meta.Kind != codec.PagedKindFlatORPKW {
		return nil, fmt.Errorf("%w: container kind %d is not a flat ORPKW image", codec.ErrCorrupt, meta.Kind)
	}
	sr := newSecReader(c, f)
	ds, a, err := loadCommon(sr, meta)
	if err != nil {
		return nil, err
	}
	fw, err := core.NewFrameworkFromFlat(ds, a)
	if err != nil {
		return nil, err
	}
	return core.NewORPKWFromParts(ds, fw, opts...)
}

func openSPKWFrom(f *pager.File, c *codec.Container, opts []core.BuildOption) (*core.SPKW, error) {
	meta := codec.ParsePagedMeta(c.Meta)
	if meta.Kind != codec.PagedKindFlatSPKW {
		return nil, fmt.Errorf("%w: container kind %d is not a flat SPKW image", codec.ErrCorrupt, meta.Kind)
	}
	sr := newSecReader(c, f)
	ds, a, err := loadCommon(sr, meta)
	if err != nil {
		return nil, err
	}
	fw, err := core.NewFrameworkFromFlat(ds, a)
	if err != nil {
		return nil, err
	}
	return core.NewSPKWFromParts(ds, fw, opts...)
}

// loadCommon wraps the dataset columns and the flat arena columns shared by
// both index kinds. The dataset aliases the mapping when zero-copy reads are
// in effect — dataset.FromColumns validates without writing, which is what
// makes PROT_READ aliasing safe.
func loadCommon(sr *secReader, meta codec.PagedMeta) (*dataset.Dataset, *core.FlatArenas, error) {
	if meta.Dim < 1 || meta.Dim > 64 {
		return nil, nil, fmt.Errorf("%w: flat image dimension %d", codec.ErrCorrupt, meta.Dim)
	}
	if meta.K < 2 || meta.K > 64 {
		return nil, nil, fmt.Errorf("%w: flat image arity %d", codec.ErrCorrupt, meta.K)
	}
	if meta.Count < 1 || meta.Count > 1<<31 {
		return nil, nil, fmt.Errorf("%w: flat image object count %d", codec.ErrCorrupt, meta.Count)
	}
	n, dim := int(meta.Count), int(meta.Dim)

	fm, err := sr.u64s(codec.SecFlatMeta, "flat meta")
	if err != nil {
		return nil, nil, err
	}
	if len(fm) != 3 && len(fm) != 4 {
		return nil, nil, fmt.Errorf("%w: flat meta section has %d values, want 4", codec.ErrCorrupt, len(fm))
	}
	version := uint64(1) // version 1 carried no version field
	if len(fm) == 4 {
		version = fm[3]
	}
	if version != codec.FlatImageVersion {
		return nil, nil, fmt.Errorf("flatio: flat image version %d is not readable; this build reads version %d: rebuild the image", version, codec.FlatImageVersion)
	}
	if fm[1] < 1 || fm[1] > 64 || fm[2] < 1 || fm[2] > 1<<31 {
		return nil, nil, fmt.Errorf("%w: flat meta pdim %d / nodes %d out of range", codec.ErrCorrupt, fm[1], fm[2])
	}
	nn := int(fm[2])

	// Dataset image.
	points, err := sr.f64s(codec.SecFlatPoints, "points")
	if err != nil {
		return nil, nil, err
	}
	docStart, err := sr.i64s(codec.SecFlatDocStart, "document offsets")
	if err != nil {
		return nil, nil, err
	}
	docWords, err := sr.u32s(codec.SecFlatDocWords, "document words")
	if err != nil {
		return nil, nil, err
	}
	if len(docStart) != n+1 {
		return nil, nil, fmt.Errorf("%w: %d document offsets for %d objects", codec.ErrCorrupt, len(docStart), n)
	}
	ds, err := dataset.FromColumns(dim, points, docStart, docWords)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", codec.ErrCorrupt, err)
	}

	// Framework columns. Shape validation is NewFrameworkFromFlat's job;
	// here only the element-width and handle decodes can fail.
	a := &core.FlatArenas{
		SplitterKind: int(fm[0]),
		K:            int(meta.K),
		PDim:         int(fm[1]),
		NumObjects:   n,
	}
	if a.Nu, err = sr.i64s(codec.SecFlatNu, "node weights"); err != nil {
		return nil, nil, err
	}
	if a.L, err = sr.i32s(codec.SecFlatL, "large counts"); err != nil {
		return nil, nil, err
	}
	if a.ChildFirst, err = sr.i32s(codec.SecFlatChildFirst, "child offsets"); err != nil {
		return nil, nil, err
	}
	if a.ChildCount, err = sr.i32s(codec.SecFlatChildCount, "child counts"); err != nil {
		return nil, nil, err
	}
	if a.PivotCount, err = sr.i32s(codec.SecFlatPivotCount, "pivot counts"); err != nil {
		return nil, nil, err
	}
	if a.RankLo, err = sr.i32s(codec.SecFlatRankLo, "interval starts"); err != nil {
		return nil, nil, err
	}
	if a.RankIDs, err = sr.i32s(codec.SecFlatRankIDs, "rank ids"); err != nil {
		return nil, nil, err
	}
	if a.LargeStart, err = sr.i32s(codec.SecFlatLargeStart, "large offsets"); err != nil {
		return nil, nil, err
	}
	if a.LargeKeys, err = sr.u32s(codec.SecFlatLargeKeys, "large keys"); err != nil {
		return nil, nil, err
	}
	if a.LargeIdx, err = sr.i32s(codec.SecFlatLargeIdx, "large indexes"); err != nil {
		return nil, nil, err
	}
	if a.MatStart, err = sr.i32s(codec.SecFlatMatStart, "list offsets"); err != nil {
		return nil, nil, err
	}
	if a.MatKeys, err = sr.u32s(codec.SecFlatMatKeys, "list keys"); err != nil {
		return nil, nil, err
	}
	listsRaw, err := sr.i32s(codec.SecFlatMatLists, "list handles")
	if err != nil {
		return nil, nil, err
	}
	if len(listsRaw)%3 != 0 {
		return nil, nil, fmt.Errorf("%w: list handle column of %d values is not {start, n, rep} triples", codec.ErrCorrupt, len(listsRaw))
	}
	a.MatLists = make([]core.FlatList, len(listsRaw)/3)
	for i := range a.MatLists {
		a.MatLists[i] = core.FlatList{Start: listsRaw[3*i], N: listsRaw[3*i+1], Rep: listsRaw[3*i+2]}
	}
	if a.MatRanks, err = sr.i32s(codec.SecFlatMatRanks, "list ranks"); err != nil {
		return nil, nil, err
	}
	if a.MatBits, err = sr.u64s(codec.SecFlatMatBits, "list bitmaps"); err != nil {
		return nil, nil, err
	}
	if a.TensorOff, err = sr.i64s(codec.SecFlatTensorOff, "tensor offsets"); err != nil {
		return nil, nil, err
	}
	if a.TensorStride, err = sr.i64s(codec.SecFlatTensorStr, "tensor strides"); err != nil {
		return nil, nil, err
	}
	if a.TensorWords, err = sr.u64s(codec.SecFlatTensorWrds, "tensor payload"); err != nil {
		return nil, nil, err
	}
	if a.Coords, err = sr.f64s(codec.SecFlatCoords, "coordinates"); err != nil {
		return nil, nil, err
	}
	if len(a.Nu) != nn {
		return nil, nil, fmt.Errorf("%w: flat meta claims %d nodes, weights carry %d", codec.ErrCorrupt, nn, len(a.Nu))
	}
	return ds, a, nil
}
