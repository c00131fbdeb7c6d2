package pager

import (
	"fmt"
	"hash/crc32"
	"sync"
	"time"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the page checksum function (crc32c, the same polynomial the
// WAL frames and the dataset codec use).
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// Pool serves pinned pages of one File and verifies each page against its
// recorded crc32c the first time it is pinned.
//
// Over a mapped file a pin is a bounds-checked subslice of the mapping —
// zero-copy, no eviction (the kernel's page cache owns residency) — and the
// pool contributes only the one-time checksum pass and the hit/miss
// accounting. Over a pread file the pool owns residency: at most capPages
// page buffers stay allocated, a miss past the cap evicts the first
// unpinned frame the clock hand finds (second-chance on the reference bit),
// and pinned frames are never evicted. The pool is safe for concurrent use.
type Pool struct {
	f    *File
	crcs []uint32 // expected crc32c per page; 0 = unverified page; nil = no table

	mu       sync.Mutex
	verified []uint64 // bitmap: page passed its checksum at least once
	frames   map[int64]*frame
	clock    []*frame
	hand     int
	cap      int
}

// frame is one resident page buffer of a pread-backed pool.
type frame struct {
	page int64
	buf  []byte
	n    int
	pins int
	ref  bool
	live bool // occupied clock slot
}

// Frame is a pinned page: Data stays valid — and its content immutable —
// until Unpin. Over a mapped file Data aliases the mapping and Unpin is
// free; over a pread file Unpin releases the buffer for eviction.
type Frame struct {
	p    *Pool
	fr   *frame
	Data []byte
}

// NewPool creates a pool over f holding at most capPages resident pages
// (pread mode; <= 0 selects 64). crcs is the per-page expected crc32c table
// (entry 0 skips verification for that page; nil skips all — for callers
// that verified the file wholesale).
func NewPool(f *File, capPages int, crcs []uint32) *Pool {
	if capPages <= 0 {
		capPages = 64
	}
	return &Pool{
		f:        f,
		crcs:     crcs,
		verified: make([]uint64, (f.NumPages()+63)/64),
		frames:   make(map[int64]*frame),
		cap:      capPages,
	}
}

// File returns the underlying file.
func (p *Pool) File() *File { return p.f }

// Close releases every frame buffer and returns their resident-page
// accounting; the pool must not be pinned again afterwards. Closing is how
// a short-lived pool (a checkpoint decode, a closed base) keeps the global
// resident gauge an actual memory measure instead of a high-water mark.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	pagerResident.Add(-int64(len(p.clock)))
	p.clock = nil
	p.frames = nil
	p.hand = 0
}

// Resident returns the number of page buffers currently held (always 0 for
// a mapped file — residency is the kernel's).
func (p *Pool) Resident() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.frames)
}

// Pin returns page, faulting it in (pread mode) and verifying its checksum
// on first pin. The caller must Unpin the returned frame.
func (p *Pool) Pin(page int64) (Frame, error) {
	start := time.Now()
	fr, err := p.pin(page)
	pagerPinNs.Observe(int64(time.Since(start)))
	return fr, err
}

func (p *Pool) pin(page int64) (Frame, error) {
	off, n, err := p.f.pageSpan(page)
	if err != nil {
		return Frame{}, err
	}
	if p.f.data != nil {
		data := p.f.data[off : off+n]
		p.mu.Lock()
		first := !p.isVerifiedLocked(page)
		if first {
			if err := p.verifyLocked(page, data); err != nil {
				p.mu.Unlock()
				return Frame{}, err
			}
		}
		p.mu.Unlock()
		if first {
			pagerPinMisses.Inc()
		} else {
			pagerPinHits.Inc()
		}
		return Frame{p: p, Data: data}, nil
	}

	p.mu.Lock()
	if fr, ok := p.frames[page]; ok {
		fr.pins++
		fr.ref = true
		p.mu.Unlock()
		pagerPinHits.Inc()
		return Frame{p: p, fr: fr, Data: fr.buf[:fr.n]}, nil
	}
	fr := p.takeFrameLocked()
	fr.page = page
	fr.n = int(n)
	fr.pins = 1
	fr.ref = true
	p.frames[page] = fr
	// Read outside any per-frame lock would race a concurrent pin of the
	// same page; keep the pool lock across the pread — page reads are rare
	// (that is what the pool exists to make true) and the simplicity keeps
	// the eviction invariants airtight.
	if _, err := p.f.ReadAt(fr.buf[:n], off); err != nil {
		p.dropFrameLocked(fr)
		p.mu.Unlock()
		return Frame{}, err
	}
	if !p.isVerifiedLocked(page) {
		if err := p.verifyLocked(page, fr.buf[:n]); err != nil {
			p.dropFrameLocked(fr)
			p.mu.Unlock()
			return Frame{}, err
		}
	}
	p.mu.Unlock()
	pagerPinMisses.Inc()
	return Frame{p: p, fr: fr, Data: fr.buf[:n]}, nil
}

// takeFrameLocked returns a fresh or evicted frame with a PageSize buffer,
// registered in the clock. Under cap it allocates; at cap it runs the clock
// hand (skip pinned, second-chance on the reference bit). When every frame
// is pinned the pool overshoots its cap rather than failing the query.
func (p *Pool) takeFrameLocked() *frame {
	if len(p.clock) >= p.cap {
		scanned := 0
		for scanned < 2*len(p.clock) {
			p.hand = (p.hand + 1) % len(p.clock)
			fr := p.clock[p.hand]
			scanned++
			if !fr.live || fr.pins > 0 {
				continue
			}
			if fr.ref {
				fr.ref = false
				continue
			}
			delete(p.frames, fr.page)
			pagerEvictions.Inc()
			return fr
		}
	}
	fr := &frame{buf: make([]byte, PageSize), live: true}
	p.clock = append(p.clock, fr)
	pagerResident.Add(1)
	return fr
}

// dropFrameLocked removes a frame whose fill failed, leaving its slot
// reusable.
func (p *Pool) dropFrameLocked(fr *frame) {
	delete(p.frames, fr.page)
	fr.pins = 0
	fr.ref = false
}

func (p *Pool) isVerifiedLocked(page int64) bool {
	return p.verified[page>>6]&(1<<(uint64(page)&63)) != 0
}

func (p *Pool) verifyLocked(page int64, data []byte) error {
	if p.crcs != nil && page < int64(len(p.crcs)) && p.crcs[page] != 0 {
		if got := Checksum(data); got != p.crcs[page] {
			pagerCRCErrors.Inc()
			return fmt.Errorf("%w: page %d of %s has crc %08x, recorded %08x",
				ErrChecksum, page, p.f.path, got, p.crcs[page])
		}
	}
	p.verified[page>>6] |= 1 << (uint64(page) & 63)
	return nil
}

// Unpin releases the pin. Safe on a zero Frame.
func (f Frame) Unpin() {
	if f.fr == nil {
		return
	}
	f.p.mu.Lock()
	f.fr.pins--
	f.p.mu.Unlock()
}
