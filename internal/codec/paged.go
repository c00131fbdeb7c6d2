package codec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"kwsc/internal/pager"
)

// This file is the KWCP2 container: the page-aligned, offset-addressed,
// checksummed layout that paged snapshots (checkpoints and the flat index
// images) are framed in. Unlike the varint stream formats in this package,
// a KWCP2 file is addressable in place — every section is a page-aligned
// run of fixed-width little-endian values, so an open file can be served
// straight from a read-only mapping (or a bounded pread pool) without a
// decode pass. See DESIGN.md §15 for the byte-level diagram.
//
// File layout (pageSize = 4096, all integers little-endian):
//
//	page 0 (superblock):
//	  magic "KWC2" | version u16 | flags u16 | pageSize u32 | sectionCount u32
//	  meta [64]byte (application blob, see PagedMeta)
//	  tableCRC u32 (crc32c of the page-CRC table section)
//	  directory: sectionCount x { id u32 | reserved u32 | off u64 | len u64 }
//	  ... zero padding ...
//	  superblock crc32c u32 over page[0 : pageSize-4]
//	page 1..: section 0, the page-CRC table — one crc32c u32 per file page,
//	  over the full page including zero padding; entries for page 0 and the
//	  table's own pages are 0 (those pages are covered by the superblock CRC
//	  and tableCRC instead)
//	then each remaining section, page-aligned, zero-padded to a page multiple
const (
	pagedMagic   = "KWC2"
	pagedVersion = 1

	superMetaOff     = 16
	superTableCRCOff = 80
	superDirOff      = 84
	dirEntrySize     = 24

	// MaxSections is the directory capacity of one superblock page.
	MaxSections = (pager.PageSize - 4 - superDirOff) / dirEntrySize
)

// Section is one named byte payload of a KWCP2 container.
type Section struct {
	ID   uint32
	Data []byte
}

// ContainerSection locates one section within a parsed container.
type ContainerSection struct {
	ID  uint32
	Off int64
	Len int64
}

// Container is a parsed KWCP2 superblock: the section directory, the
// application meta blob, and the verified page-CRC table. It holds no
// section payloads — those are read (or mapped) by the caller.
type Container struct {
	Meta     [64]byte
	Sections []ContainerSection
	PageCRCs []uint32 // one per file page; 0 = not covered (superblock, table)
	size     int64
}

func pagesFor(n int64) int64 { return (n + pager.PageSize - 1) / pager.PageSize }

// WriteContainer frames the sections into a KWCP2 container on w. Section
// IDs must be nonzero (0 names the page-CRC table) and unique; order is
// preserved in the directory and the file.
func WriteContainer(w io.Writer, meta [64]byte, sections []Section) error {
	if len(sections)+1 > MaxSections {
		return fmt.Errorf("codec: %d sections exceed the %d-entry directory", len(sections)+1, MaxSections)
	}
	seen := map[uint32]bool{0: true}
	dataPages := int64(0)
	for _, s := range sections {
		if seen[s.ID] {
			return fmt.Errorf("codec: duplicate or reserved section id %d", s.ID)
		}
		seen[s.ID] = true
		dataPages += pagesFor(int64(len(s.Data)))
	}
	// The table's length depends on the page count, which depends on the
	// table's length; iterate to the (small) fixed point.
	tablePages := int64(1)
	for {
		need := pagesFor(4 * (1 + tablePages + dataPages))
		if need == tablePages {
			break
		}
		tablePages = need
	}
	numPages := 1 + tablePages + dataPages

	dir := make([]ContainerSection, 0, len(sections)+1)
	dir = append(dir, ContainerSection{ID: 0, Off: pager.PageSize, Len: 4 * numPages})
	off := (1 + tablePages) * pager.PageSize
	for _, s := range sections {
		dir = append(dir, ContainerSection{ID: s.ID, Off: off, Len: int64(len(s.Data))})
		off += pagesFor(int64(len(s.Data))) * pager.PageSize
	}

	var zeros [pager.PageSize]byte
	crcs := make([]uint32, numPages)
	for si, s := range sections {
		e := dir[si+1]
		for p := int64(0); p < pagesFor(e.Len); p++ {
			lo := p * pager.PageSize
			hi := lo + pager.PageSize
			if hi > e.Len {
				hi = e.Len
			}
			c := crc32.Update(0, castagnoli, s.Data[lo:hi])
			if pad := pager.PageSize - (hi - lo); pad > 0 {
				c = crc32.Update(c, castagnoli, zeros[:pad])
			}
			crcs[e.Off/pager.PageSize+p] = c
		}
	}
	table := putU32s(crcs)
	// The table checksum covers the padded table pages, so a flipped bit
	// anywhere in that region — padding included — is detected, matching the
	// full-page coverage data pages get.
	tableCRC := crc32.Checksum(table, castagnoli)
	if pad := tablePages*pager.PageSize - int64(len(table)); pad > 0 {
		tableCRC = crc32.Update(tableCRC, castagnoli, zeros[:pad])
	}

	page := make([]byte, pager.PageSize)
	copy(page, pagedMagic)
	binary.LittleEndian.PutUint16(page[4:], pagedVersion)
	binary.LittleEndian.PutUint16(page[6:], 0)
	binary.LittleEndian.PutUint32(page[8:], pager.PageSize)
	binary.LittleEndian.PutUint32(page[12:], uint32(len(dir)))
	copy(page[superMetaOff:], meta[:])
	binary.LittleEndian.PutUint32(page[superTableCRCOff:], tableCRC)
	o := superDirOff
	for _, e := range dir {
		binary.LittleEndian.PutUint32(page[o:], e.ID)
		binary.LittleEndian.PutUint64(page[o+8:], uint64(e.Off))
		binary.LittleEndian.PutUint64(page[o+16:], uint64(e.Len))
		o += dirEntrySize
	}
	binary.LittleEndian.PutUint32(page[pager.PageSize-4:],
		crc32.Checksum(page[:pager.PageSize-4], castagnoli))

	// A checkpoint is framed into a bytes.Buffer; sized once, it does not
	// regrow (and recopy) its way up to the container.
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(int(numPages) * pager.PageSize)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(page); err != nil {
		return err
	}
	if _, err := bw.Write(table); err != nil {
		return err
	}
	if pad := tablePages*pager.PageSize - int64(len(table)); pad > 0 {
		if _, err := bw.Write(zeros[:pad]); err != nil {
			return err
		}
	}
	for _, s := range sections {
		if _, err := bw.Write(s.Data); err != nil {
			return err
		}
		if pad := pagesFor(int64(len(s.Data)))*pager.PageSize - int64(len(s.Data)); pad > 0 {
			if _, err := bw.Write(zeros[:pad]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ParseContainer reads and validates the superblock and page-CRC table of a
// KWCP2 container. It touches only page 0 and the table pages; section
// payloads stay on disk.
func ParseContainer(r io.ReaderAt, size int64) (*Container, error) {
	if size < 2*pager.PageSize || size%pager.PageSize != 0 {
		return nil, fmt.Errorf("%w: container size %d not a page multiple >= 2 pages", ErrCorrupt, size)
	}
	page := make([]byte, pager.PageSize)
	if _, err := io.ReadFull(io.NewSectionReader(r, 0, pager.PageSize), page); err != nil {
		return nil, fmt.Errorf("%w: reading superblock", ErrCorrupt)
	}
	if string(page[:4]) != pagedMagic {
		return nil, fmt.Errorf("%w: bad container magic", ErrCorrupt)
	}
	if got := binary.LittleEndian.Uint32(page[pager.PageSize-4:]); got != crc32.Checksum(page[:pager.PageSize-4], castagnoli) {
		return nil, fmt.Errorf("%w: superblock checksum mismatch", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(page[4:]); v != pagedVersion {
		return nil, fmt.Errorf("codec: unsupported container version %d", v)
	}
	if ps := binary.LittleEndian.Uint32(page[8:]); ps != pager.PageSize {
		return nil, fmt.Errorf("%w: container page size %d, want %d", ErrCorrupt, ps, pager.PageSize)
	}
	nsec := binary.LittleEndian.Uint32(page[12:])
	if nsec < 1 || nsec > MaxSections {
		return nil, fmt.Errorf("%w: section count %d", ErrCorrupt, nsec)
	}
	c := &Container{size: size}
	copy(c.Meta[:], page[superMetaOff:])
	seen := map[uint32]bool{}
	for i := uint32(0); i < nsec; i++ {
		o := superDirOff + int(i)*dirEntrySize
		e := ContainerSection{ID: binary.LittleEndian.Uint32(page[o:])}
		off := binary.LittleEndian.Uint64(page[o+8:])
		n := binary.LittleEndian.Uint64(page[o+16:])
		if off >= 1<<62 || n >= 1<<62 {
			return nil, fmt.Errorf("%w: section %d span overflows", ErrCorrupt, e.ID)
		}
		e.Off, e.Len = int64(off), int64(n)
		if e.Off < pager.PageSize || e.Off%pager.PageSize != 0 || e.Off+e.Len > size {
			return nil, fmt.Errorf("%w: section %d span [%d,%d) outside file", ErrCorrupt, e.ID, e.Off, e.Off+e.Len)
		}
		if seen[e.ID] {
			return nil, fmt.Errorf("%w: duplicate section id %d", ErrCorrupt, e.ID)
		}
		seen[e.ID] = true
		c.Sections = append(c.Sections, e)
	}
	numPages := size / pager.PageSize
	tOff, tLen, ok := c.Section(0)
	if !ok || tLen != 4*numPages {
		return nil, fmt.Errorf("%w: page-CRC table missing or sized %d, want %d", ErrCorrupt, tLen, 4*numPages)
	}
	padded := pagesFor(tLen) * pager.PageSize
	if tOff+padded > size {
		return nil, fmt.Errorf("%w: page-CRC table pages outside file", ErrCorrupt)
	}
	table := make([]byte, padded)
	if _, err := io.ReadFull(io.NewSectionReader(r, tOff, padded), table); err != nil {
		return nil, fmt.Errorf("%w: reading page-CRC table", ErrCorrupt)
	}
	if got := crc32.Checksum(table, castagnoli); got != binary.LittleEndian.Uint32(page[superTableCRCOff:]) {
		return nil, fmt.Errorf("%w: page-CRC table checksum mismatch", ErrCorrupt)
	}
	c.PageCRCs = getU32s(table[:tLen])
	// The superblock and the table verify through their own checksums; their
	// table entries are defined 0 regardless of what the file claims.
	c.PageCRCs[0] = 0
	for p := tOff / pager.PageSize; p < (tOff+tLen+pager.PageSize-1)/pager.PageSize; p++ {
		c.PageCRCs[p] = 0
	}
	return c, nil
}

// Section returns the byte span of section id, if present.
func (c *Container) Section(id uint32) (off, n int64, ok bool) {
	for _, e := range c.Sections {
		if e.ID == id {
			return e.Off, e.Len, true
		}
	}
	return 0, 0, false
}

// SectionBytes reads section id in full. Missing sections read as empty.
func (c *Container) SectionBytes(r io.ReaderAt, id uint32) ([]byte, error) {
	off, n, ok := c.Section(id)
	if !ok || n == 0 {
		return nil, nil
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(io.NewSectionReader(r, off, n), buf); err != nil {
		return nil, fmt.Errorf("%w: reading section %d", ErrCorrupt, id)
	}
	return buf, nil
}

// sequentialAdviser is implemented by pager.File: a hint that the next reads
// are one linear pass, so the kernel raises readahead for them.
type sequentialAdviser interface{ AdviseSequential(off, n int64) }

// VerifyAllPages checksums every covered page against the table — the eager
// integrity pass for full decodes; paged serving verifies lazily per pin.
// When the reader is a pager file the scan announces itself as sequential
// first (ROADMAP item 2c), cutting cold-start fault stalls on large images.
func (c *Container) VerifyAllPages(r io.ReaderAt) error {
	if a, ok := r.(sequentialAdviser); ok {
		a.AdviseSequential(0, int64(len(c.PageCRCs))*pager.PageSize)
	}
	buf := make([]byte, pager.PageSize)
	for p := int64(0); p < int64(len(c.PageCRCs)); p++ {
		want := c.PageCRCs[p]
		if want == 0 {
			continue
		}
		if _, err := io.ReadFull(io.NewSectionReader(r, p*pager.PageSize, pager.PageSize), buf); err != nil {
			return fmt.Errorf("%w: reading page %d", ErrCorrupt, p)
		}
		if got := crc32.Checksum(buf, castagnoli); got != want {
			return fmt.Errorf("%w: page %d: %w", ErrCorrupt, p, pager.ErrChecksum)
		}
	}
	return nil
}

// Fixed-width little-endian column codecs. The encode side is explicit (a
// checkpoint write is not hot); the mapped read side bypasses these with
// aligned casts and the pread side decodes through them.

func putU32s(v []uint32) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], x)
	}
	return b
}

func putI32s(v []int32) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
	return b
}

func putU64s(v []uint64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], x)
	}
	return b
}

func putI64s(v []int64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
	return b
}

func putF64s(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

func getU32s(b []byte) []uint32 {
	v := make([]uint32, len(b)/4)
	for i := range v {
		v[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return v
}

func getI32s(b []byte) []int32 {
	v := make([]int32, len(b)/4)
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return v
}

func getU64s(b []byte) []uint64 {
	v := make([]uint64, len(b)/8)
	for i := range v {
		v[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return v
}

func getI64s(b []byte) []int64 {
	v := make([]int64, len(b)/8)
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

func getF64s(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}
