package pager

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// writePagedFixture writes nPages pages of deterministic content and returns
// the path plus the per-page crc table.
func writePagedFixture(t *testing.T, nPages int, tail int) (string, []uint32) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "fixture.kwc2")
	size := (nPages-1)*PageSize + tail
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*7 + i/PageSize)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	crcs := make([]uint32, nPages)
	for p := 0; p < nPages; p++ {
		end := (p + 1) * PageSize
		if end > size {
			end = size
		}
		crcs[p] = Checksum(data[p*PageSize : end])
	}
	return path, crcs
}

func openBoth(t *testing.T, path string) map[string]*File {
	t.Helper()
	m := map[string]*File{}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	m["auto"] = f
	// The same path is a registry singleton, so force the pread mode through
	// a distinct path (hard link) rather than a second Open option.
	alt := path + ".pread"
	if err := os.Link(path, alt); err != nil {
		t.Fatal(err)
	}
	pf, err := Open(alt, WithoutMmap())
	if err != nil {
		t.Fatal(err)
	}
	if pf.Mapped() {
		t.Fatal("WithoutMmap file reports Mapped")
	}
	m["pread"] = pf
	return m
}

// TestPinRoundTripBothModes also holds kwsc_pager_mapped_bytes to the
// mapping: it grows by the file's size while the file is mapped and falls
// back on the last Unref.
func TestPinRoundTripBothModes(t *testing.T) {
	path, crcs := writePagedFixture(t, 5, 1000)
	mapped0 := pagerMappedBytes.Load()
	files := openBoth(t, path)
	want := int64(0)
	if f := files["auto"]; f.Mapped() {
		want = f.Size()
	}
	if got := pagerMappedBytes.Load() - mapped0; got != want {
		t.Fatalf("kwsc_pager_mapped_bytes moved by %d on open, want %d", got, want)
	}
	for mode, f := range files {
		pool := NewPool(f, 2, crcs)
		for pass := 0; pass < 2; pass++ {
			for p := int64(0); p < f.NumPages(); p++ {
				fr, err := pool.Pin(p)
				if err != nil {
					t.Fatalf("%s: pin page %d: %v", mode, p, err)
				}
				want := byte(int(p)*PageSize*7 + int(p))
				if fr.Data[0] != want {
					t.Fatalf("%s: page %d starts with %d, want %d", mode, p, fr.Data[0], want)
				}
				if p == f.NumPages()-1 && len(fr.Data) != 1000 {
					t.Fatalf("%s: tail page has %d bytes, want 1000", mode, len(fr.Data))
				}
				fr.Unpin()
			}
		}
		if err := f.Unref(); err != nil {
			t.Fatal(err)
		}
	}
	if got := pagerMappedBytes.Load() - mapped0; got != 0 {
		t.Fatalf("kwsc_pager_mapped_bytes moved by %d once every file closed", got)
	}
}

// TestChecksumFailureOnFirstPin: a corrupt page fails its first pin, in both
// modes, and counts once in kwsc_pager_crc_failures_total.
func TestChecksumFailureOnFirstPin(t *testing.T) {
	path, crcs := writePagedFixture(t, 4, PageSize)
	// Corrupt one byte in page 2.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[2*PageSize+100] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for mode, f := range openBoth(t, path) {
		pool := NewPool(f, 4, crcs)
		if _, err := pool.Pin(1); err != nil {
			t.Fatalf("%s: clean page rejected: %v", mode, err)
		}
		crc0 := pagerCRCErrors.Load()
		if _, err := pool.Pin(2); !errors.Is(err, ErrChecksum) {
			t.Fatalf("%s: corrupt page error = %v, want ErrChecksum", mode, err)
		}
		if got := pagerCRCErrors.Load() - crc0; got != 1 {
			t.Fatalf("%s: kwsc_pager_crc_failures_total moved by %d, want 1", mode, got)
		}
		f.Unref()
	}
}

func TestPoolEvictionBound(t *testing.T) {
	path, crcs := writePagedFixture(t, 32, PageSize)
	f, err := Open(path, WithoutMmap())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Unref()
	const cap = 4
	pool := NewPool(f, cap, crcs)
	before := pagerEvictions.Load()
	for round := 0; round < 3; round++ {
		for p := int64(0); p < 32; p++ {
			fr, err := pool.Pin(p)
			if err != nil {
				t.Fatal(err)
			}
			fr.Unpin()
			if r := pool.Resident(); r > cap {
				t.Fatalf("resident %d exceeds cap %d", r, cap)
			}
		}
	}
	if pagerEvictions.Load() == before {
		t.Fatal("no evictions recorded while cycling 32 pages through a 4-page pool")
	}
}

func TestPinnedFramesSurviveEviction(t *testing.T) {
	path, crcs := writePagedFixture(t, 16, PageSize)
	f, err := Open(path, WithoutMmap())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Unref()
	pool := NewPool(f, 2, crcs)
	fr0, err := pool.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	first := fr0.Data[0]
	for p := int64(1); p < 16; p++ {
		fr, err := pool.Pin(p)
		if err != nil {
			t.Fatal(err)
		}
		fr.Unpin()
	}
	if fr0.Data[0] != first {
		t.Fatal("pinned frame was evicted and reused under the pin")
	}
	fr0.Unpin()
}

func TestViewTypedReadsAndSpans(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "typed.kwc2")
	data := make([]byte, 3*PageSize)
	binary.LittleEndian.PutUint64(data[16:], 0xdeadbeefcafe)
	binary.LittleEndian.PutUint32(data[PageSize-2:], 0x11223344) // straddles pages 0/1
	for i := 0; i < 64; i++ {
		data[2*PageSize+i] = byte(i)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"mmap", "pread"} {
		p := path
		var opts []OpenOption
		if mode == "pread" {
			p = path + ".pread"
			os.Link(path, p)
			opts = append(opts, WithoutMmap())
		}
		f, err := Open(p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		pool := NewPool(f, 2, nil)
		v, err := NewView(pool, 0, f.Size())
		if err != nil {
			t.Fatal(err)
		}
		if got := v.U64(16); got != 0xdeadbeefcafe {
			t.Fatalf("%s: U64 = %x", mode, got)
		}
		if got := v.U32(PageSize - 2); got != 0x11223344 {
			t.Fatalf("%s: straddling U32 = %x", mode, got)
		}
		span := make([]byte, 64)
		v.Read(2*PageSize-16, span)
		for i := 16; i < 64; i++ {
			if span[i] != byte(i-16) {
				t.Fatalf("%s: span[%d] = %d", mode, i, span[i])
			}
		}
		if v.Err() != nil {
			t.Fatalf("%s: sticky err %v", mode, v.Err())
		}
		v.U64(f.Size()) // out of range
		if v.Err() == nil {
			t.Fatalf("%s: out-of-range read did not latch", mode)
		}
		v.Release()
		f.Unref()
	}
}

// TestRetireDefersWhileOpen: retiring an open file counts in
// kwsc_pager_retire_deferred_total, and its deletion at the last Unref in
// kwsc_pager_retired_deleted_total.
func TestRetireDefersWhileOpen(t *testing.T) {
	path, _ := writePagedFixture(t, 2, PageSize)
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	deferred0, deleted0 := pagerRetireDeferred.Load(), pagerRetiredDeleted.Load()
	deferred, err := Retire(path)
	if err != nil || !deferred {
		t.Fatalf("Retire(open) = (%v, %v), want deferred", deferred, err)
	}
	if got := pagerRetireDeferred.Load() - deferred0; got != 1 {
		t.Fatalf("kwsc_pager_retire_deferred_total moved by %d, want 1", got)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal("retired file deleted while still referenced")
	}
	// A second reference keeps it alive past the first unref.
	f.Ref()
	if err := f.Unref(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal("retired file deleted while a reference remains")
	}
	if err := f.Unref(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("retired file survives last unref: %v", err)
	}
	if got := pagerRetiredDeleted.Load() - deleted0; got != 1 {
		t.Fatalf("kwsc_pager_retired_deleted_total moved by %d, want 1", got)
	}
}

func TestRetireUnopenedRemovesImmediately(t *testing.T) {
	path, _ := writePagedFixture(t, 2, PageSize)
	deferred, err := Retire(path)
	if err != nil || deferred {
		t.Fatalf("Retire(closed) = (%v, %v)", deferred, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("file survives immediate retire")
	}
}

func TestOpenSharesRegistryEntry(t *testing.T) {
	path, _ := writePagedFixture(t, 2, PageSize)
	a, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same path opened twice returned distinct files")
	}
	if err := a.Unref(); err != nil {
		t.Fatal(err)
	}
	// Still readable through the second reference.
	var buf [8]byte
	if _, err := b.ReadAt(buf[:], 0); err != nil {
		t.Fatalf("read after first unref: %v", err)
	}
	if err := b.Unref(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentPinsRace(t *testing.T) {
	path, crcs := writePagedFixture(t, 64, PageSize)
	f, err := Open(path, WithoutMmap())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Unref()
	pool := NewPool(f, 8, crcs)
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(seed int64) {
			for i := 0; i < 400; i++ {
				p := (seed*31 + int64(i)*17) % 64
				fr, err := pool.Pin(p)
				if err != nil {
					done <- err
					return
				}
				want := byte(int(p)*PageSize*7 + int(p))
				if fr.Data[0] != want {
					fr.Unpin()
					done <- errors.New("pin returned wrong page content")
					return
				}
				fr.Unpin()
			}
			done <- nil
		}(int64(g))
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdviseHints: access-pattern hints must be safe no-ops from the
// caller's perspective on both backends — any range, including unaligned,
// partial-page, and out-of-bounds ones, leaves reads intact.
func TestAdviseHints(t *testing.T) {
	path, _ := writePagedFixture(t, 4, 100)
	for mode, f := range openBoth(t, path) {
		t.Run(mode, func(t *testing.T) {
			defer f.Unref()
			f.AdviseSequential(0, f.Size())
			f.AdviseWillNeed(0, f.Size())
			f.AdviseWillNeed(123, 7)           // unaligned interior
			f.AdviseWillNeed(f.Size()-10, 100) // clipped tail
			f.AdviseWillNeed(-5, 10)           // rejected, no panic
			f.AdviseWillNeed(f.Size()+5, 10)   // past EOF, rejected
			f.AdviseSequential(0, 0)           // empty
			var buf [8]byte
			if _, err := f.ReadAt(buf[:], 0); err != nil {
				t.Fatalf("read after advise: %v", err)
			}
			if want := byte(0); buf[0] != want {
				t.Fatalf("byte 0 = %d, want %d", buf[0], want)
			}
		})
	}
}
