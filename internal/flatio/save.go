package flatio

import (
	"fmt"
	"io"
	"os"

	"kwsc/internal/codec"
	"kwsc/internal/core"
	"kwsc/internal/dataset"
)

// SaveORPKW serializes an ORPKW (dataset, rank tables, flat arenas) as a
// flat-index KWCP2 container; ORPKW's KD splitter always serializes.
func SaveORPKW(w io.Writer, ix *core.ORPKW) error {
	fw := ix.Framework()
	a, err := fw.ExportFlat()
	if err != nil {
		return err
	}
	ds := fw.Dataset()
	secs, err := flatSections(a, ds)
	if err != nil {
		return err
	}
	sorted, ranks := ix.RankSpace().Tables()
	ss := make([]float64, 0, ds.Dim()*ds.Len())
	rr := make([]int32, 0, ds.Dim()*ds.Len())
	for j := 0; j < ds.Dim(); j++ {
		ss = append(ss, sorted[j]...)
		rr = append(rr, ranks[j]...)
	}
	secs = append(secs,
		codec.Section{ID: codec.SecFlatRankSorted, Data: codec.PutF64s(ss)},
		codec.Section{ID: codec.SecFlatRankRanks, Data: codec.PutI32s(rr)},
	)
	meta := codec.PagedMeta{
		Kind:  codec.PagedKindFlatORPKW,
		K:     uint32(a.K),
		Dim:   uint32(ds.Dim()),
		Count: uint64(ds.Len()),
	}
	return codec.WriteContainer(w, meta.Encode(), secs)
}

// SaveSPKW serializes an SPKW. The splitter must be spart.Box (or
// spart.KD): the default d=2 Willard2D substrate has polygon cells with no
// fixed-width form — build with SPKWConfig.Splitter = &spart.Box{Dim: 2} if
// the index is to be saved.
func SaveSPKW(w io.Writer, ix *core.SPKW) error {
	fw := ix.Framework()
	a, err := fw.ExportFlat()
	if err != nil {
		return err
	}
	ds := fw.Dataset()
	secs, err := flatSections(a, ds)
	if err != nil {
		return err
	}
	meta := codec.PagedMeta{
		Kind:  codec.PagedKindFlatSPKW,
		K:     uint32(a.K),
		Dim:   uint32(ds.Dim()),
		Count: uint64(ds.Len()),
	}
	return codec.WriteContainer(w, meta.Encode(), secs)
}

// SaveFileORPKW is SaveORPKW to a path, written atomically (tmp + rename +
// directory sync).
func SaveFileORPKW(path string, ix *core.ORPKW) error {
	return writeAtomic(path, func(f *os.File) error { return SaveORPKW(f, ix) })
}

// SaveFileSPKW is SaveSPKW to a path, written atomically.
func SaveFileSPKW(path string, ix *core.SPKW) error {
	return writeAtomic(path, func(f *os.File) error { return SaveSPKW(f, ix) })
}

// flatSections encodes the framework columns and the dataset image — the
// sections common to both index kinds.
func flatSections(a *core.FlatArenas, ds *dataset.Dataset) ([]codec.Section, error) {
	if n := ds.Len(); a.NumObjects != n {
		return nil, fmt.Errorf("flatio: flat image indexes %d objects, dataset has %d", a.NumObjects, n)
	}
	points, docStart, docWords := ds.Columns()
	lists := make([]int32, 0, 3*len(a.MatLists))
	for _, l := range a.MatLists {
		lists = append(lists, l.Start, l.N, l.Rep)
	}
	nn := len(a.Nu)
	return []codec.Section{
		{ID: codec.SecFlatMeta, Data: codec.PutU64s([]uint64{uint64(a.SplitterKind), uint64(a.PDim), uint64(nn), codec.FlatImageVersion})},
		{ID: codec.SecFlatCells, Data: codec.PutF64s(a.CellBounds)},
		{ID: codec.SecFlatNu, Data: codec.PutI64s(a.Nu)},
		{ID: codec.SecFlatL, Data: codec.PutI32s(a.L)},
		{ID: codec.SecFlatChildFirst, Data: codec.PutI32s(a.ChildFirst)},
		{ID: codec.SecFlatChildCount, Data: codec.PutI32s(a.ChildCount)},
		{ID: codec.SecFlatPivotCount, Data: codec.PutI32s(a.PivotCount)},
		{ID: codec.SecFlatRankLo, Data: codec.PutI32s(a.RankLo)},
		{ID: codec.SecFlatRankIDs, Data: codec.PutI32s(a.RankIDs)},
		{ID: codec.SecFlatLargeStart, Data: codec.PutI32s(a.LargeStart)},
		{ID: codec.SecFlatLargeKeys, Data: codec.PutU32s(a.LargeKeys)},
		{ID: codec.SecFlatLargeIdx, Data: codec.PutI32s(a.LargeIdx)},
		{ID: codec.SecFlatMatStart, Data: codec.PutI32s(a.MatStart)},
		{ID: codec.SecFlatMatKeys, Data: codec.PutU32s(a.MatKeys)},
		{ID: codec.SecFlatMatLists, Data: codec.PutI32s(lists)},
		{ID: codec.SecFlatMatRanks, Data: codec.PutI32s(a.MatRanks)},
		{ID: codec.SecFlatMatBits, Data: codec.PutU64s(a.MatBits)},
		{ID: codec.SecFlatTensorOff, Data: codec.PutI64s(a.TensorOff)},
		{ID: codec.SecFlatTensorStr, Data: codec.PutI64s(a.TensorStride)},
		{ID: codec.SecFlatTensorWrds, Data: codec.PutU64s(a.TensorWords)},
		{ID: codec.SecFlatCoords, Data: codec.PutF64s(a.Coords)},
		{ID: codec.SecFlatPoints, Data: codec.PutF64s(points)},
		{ID: codec.SecFlatDocStart, Data: codec.PutI64s(docStart)},
		{ID: codec.SecFlatDocWords, Data: codec.PutU32s(docWords)},
	}, nil
}
