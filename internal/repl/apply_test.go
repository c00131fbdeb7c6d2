package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"kwsc/internal/core"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/wal"
)

// Hand-built log records and frames, byte for byte as DESIGN.md §11 gives
// them: seq uvarint | op u8 | handle uvarint, and for an insert dim uvarint
// | per-coordinate float64 bits uvarint | doclen uvarint | keyword deltas;
// each framed as u32 length | u32 crc32c | payload.

func insRecord(seq uint64, handle int64, obj dataset.Object) []byte {
	b := binary.AppendUvarint(nil, seq)
	b = append(b, 1)
	b = binary.AppendUvarint(b, uint64(handle))
	b = binary.AppendUvarint(b, uint64(len(obj.Point)))
	for _, c := range obj.Point {
		b = binary.AppendUvarint(b, math.Float64bits(c))
	}
	b = binary.AppendUvarint(b, uint64(len(obj.Doc)))
	prev := uint64(0)
	for _, kw := range obj.Doc {
		b = binary.AppendUvarint(b, uint64(kw)-prev)
		prev = uint64(kw)
	}
	return b
}

func delRecord(seq uint64, handle int64) []byte {
	b := binary.AppendUvarint(nil, seq)
	b = append(b, 2)
	return binary.AppendUvarint(b, uint64(handle))
}

func frameOf(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(b, payload...)
}

func handObj(i int) dataset.Object {
	return dataset.Object{
		Point: geom.Point{float64(i) / 10, 0.5},
		Doc:   []dataset.Keyword{dataset.Keyword(i % 3), 5},
	}
}

// TestDivergedOrDamagedStream feeds one table of hand-built frame streams to
// both log readers: to recovery as a directory's only segment and to a
// follower as a shipped batch. Every stream opens with the same four good
// records (three inserts and a delete) and then breaks in one way. Each
// reader must give its own verdict — recovery ErrCorrupt or a truncated
// torn tail, the follower ErrDiverged, wal.ErrCorrupt or a torn retry — and
// both must apply the same prefix: the four good records, reached through
// the one apply rule the same number of times (counted at wal.FPReplay).
func TestDivergedOrDamagedStream(t *testing.T) {
	var good []byte
	for _, rec := range [][]byte{
		insRecord(1, 0, handObj(0)), insRecord(2, 1, handObj(1)),
		insRecord(3, 2, handObj(2)), delRecord(4, 1),
	} {
		good = append(good, frameOf(rec)...)
	}
	next := frameOf(insRecord(5, 3, handObj(3)))
	crcFlipped := append([]byte(nil), next...)
	crcFlipped[len(crcFlipped)-2] ^= 0x40

	const (
		accepted = iota // recovery opens; the follower applies and retries nothing
		torn            // recovery truncates the tail; the follower re-requests
		diverged        // recovery ErrCorrupt; the follower ErrDiverged
		corrupt         // recovery ErrCorrupt; the follower wal.ErrCorrupt
	)
	for _, c := range []struct {
		name    string
		tail    []byte
		verdict int
	}{
		{"clean", nil, accepted},
		{"seq-gap", frameOf(insRecord(6, 3, handObj(3))), diverged},
		{"insert-handle-differs", frameOf(insRecord(5, 7, handObj(3))), diverged},
		{"delete-dead-handle", frameOf(delRecord(5, 1)), diverged},
		{"crc-flip-mid-stream", append(crcFlipped, frameOf(insRecord(6, 4, handObj(4)))...), corrupt},
		{"torn-last-frame", next[:len(next)-3], torn},
		{"malformed-payload-valid-crc", frameOf([]byte{5, 9, 0}), corrupt},
	} {
		t.Run(c.name, func(t *testing.T) {
			stream := append(append([]byte(nil), good...), c.tail...)
			hits := 0
			core.ArmFailpoint(wal.FPReplay, func() { hits++ })
			t.Cleanup(core.DisarmAllFailpoints)

			// Recovery: the stream is the directory's only segment.
			rdir := t.TempDir()
			seg := filepath.Join(rdir, fmt.Sprintf("wal-%016x.log", 1))
			if err := os.WriteFile(seg, stream, 0o644); err != nil {
				t.Fatal(err)
			}
			rd, rerr := wal.Open(rdir, 2, 2)
			recoveryHits := hits
			switch c.verdict {
			case accepted, torn:
				if rerr != nil {
					t.Fatalf("recovery refused: %v", rerr)
				}
				checkPrefix(t, "recovery", rd)
				rd.Close()
				if st, _ := os.Stat(seg); st.Size() != int64(len(good)) {
					t.Fatalf("recovered segment holds %d bytes, want the %d of the good prefix", st.Size(), len(good))
				}
			default:
				if !errors.Is(rerr, wal.ErrCorrupt) || errors.Is(rerr, wal.ErrDiverged) {
					t.Fatalf("recovery: err = %v, want ErrCorrupt", rerr)
				}
			}

			// The follower: the stream is the primary's first shipped batch.
			hits = 0
			cfg := followerCfg(t, streamPrimary(t, stream))
			f, err := OpenFollower(cfg)
			if err != nil {
				t.Fatalf("OpenFollower: %v", err)
			}
			n, perr := f.Poll()
			switch c.verdict {
			case accepted, torn:
				if perr != nil {
					t.Fatalf("follower: %v", perr)
				}
			case diverged:
				if !errors.Is(perr, ErrDiverged) || errors.Is(perr, wal.ErrCorrupt) {
					t.Fatalf("follower: err = %v, want ErrDiverged", perr)
				}
			case corrupt:
				if !errors.Is(perr, wal.ErrCorrupt) || errors.Is(perr, ErrDiverged) {
					t.Fatalf("follower: err = %v, want wal.ErrCorrupt", perr)
				}
			}
			if n != 4 || f.AppliedSeq() != 4 {
				t.Fatalf("follower applied %d records, AppliedSeq %d; want the 4 good ones", n, f.AppliedSeq())
			}
			checkPrefix(t, "follower", f.Durable())
			if hits != recoveryHits {
				t.Fatalf("apply reached %d times at the follower, %d at recovery", hits, recoveryHits)
			}
			// The follower journaled exactly what it applied.
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			ld, err := wal.Open(cfg.Dir, 2, 2)
			if err != nil {
				t.Fatalf("follower's own recovery: %v", err)
			}
			defer ld.Close()
			checkPrefix(t, "follower's own recovery", ld)
		})
	}
}

// checkPrefix asserts d holds exactly the good prefix's state: handles 0
// and 2 live at seq 4, with their logged objects.
func checkPrefix(t *testing.T, who string, d *wal.Durable) {
	t.Helper()
	handles, objs, err := d.SnapshotNow().Entries()
	if err != nil {
		t.Fatalf("%s: Entries: %v", who, err)
	}
	if d.Seq() != 4 || fmt.Sprint(handles) != "[0 2]" {
		t.Fatalf("%s: seq %d, live handles %v; want seq 4, handles [0 2]", who, d.Seq(), handles)
	}
	for i, h := range handles {
		if got, want := fmt.Sprint(objs.Point(int32(i)), objs.Doc(int32(i))), fmt.Sprint(handObj(int(h)).Point, handObj(int(h)).Doc); got != want {
			t.Fatalf("%s: handle %d holds %s, want %s", who, h, got, want)
		}
	}
}

// streamPrimary serves a shipper surface with no checkpoint whose log is
// stream: a tail request from seq 1 gets it whole.
func streamPrimary(t *testing.T, stream []byte) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/checkpoint"):
			w.WriteHeader(http.StatusNoContent)
		case strings.HasSuffix(r.URL.Path, "/wal"):
			w.Header().Set(HdrLastSeq, "5")
			if r.URL.Query().Get("from") == "1" {
				w.Write(stream)
			}
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestMislabelledCheckpoint ships a seq-30 checkpoint under an X-Kwsc-Seq
// header of 1000. A follower that named the file by the header would land
// it where recovery tries it first, then catch up to 40, checkpoint there,
// and leave a directory that no longer opens (the state ends at seq 30, the
// log starts at 41). The download must be refused before it lands; and a
// directory that already holds such a file must recover past it to the
// newest checkpoint that validates.
func TestMislabelledCheckpoint(t *testing.T) {
	prim, srv, _ := newPrimary(t)
	ops := replWorkload(101, 40)
	handles := map[int]int64{}
	applyOps(t, prim, ops, 0, 30, handles)
	if err := prim.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	applyOps(t, prim, ops, 30, 40, handles)

	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(srv.URL + r.URL.Path + "?" + r.URL.RawQuery)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for _, hdr := range []string{HdrSeq, HdrLastSeq, HdrShippedTo} {
			if v := resp.Header.Get(hdr); v != "" {
				w.Header().Set(hdr, v)
			}
		}
		if strings.HasSuffix(r.URL.Path, "/checkpoint") {
			w.Header().Set(HdrSeq, "1000")
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(liar.Close)
	cfg := followerCfg(t, liar.URL)
	if _, err := OpenFollower(cfg); err == nil || !strings.Contains(err.Error(), "refused") || !strings.Contains(err.Error(), "supersedes seq 30") {
		t.Fatalf("OpenFollower behind a mislabelling proxy: err = %v, want a refusal naming seq 30", err)
	}
	if landed, _ := filepath.Glob(filepath.Join(cfg.Dir, "checkpoint-*")); len(landed) > 0 {
		t.Fatalf("refused checkpoint left behind as %v", landed)
	}

	// The directory such a landing left: a follower at 40 with its own
	// checkpoint there, and the seq-30 checkpoint under the name of 1000.
	cfg = followerCfg(t, srv.URL)
	f, err := OpenFollower(cfg)
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	pollUntil(t, f, 40)
	if err := f.Durable().Checkpoint(); err != nil {
		t.Fatalf("follower Checkpoint: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Header.Get(HdrSeq) != strconv.Itoa(30) {
		t.Fatalf("primary checkpoint: %v, %s = %q", err, HdrSeq, resp.Header.Get(HdrSeq))
	}
	if err := os.WriteFile(filepath.Join(cfg.Dir, wal.CheckpointFileName(1000)), body, 0o644); err != nil {
		t.Fatal(err)
	}
	f2, err := OpenFollower(cfg)
	if err != nil {
		t.Fatalf("reopen beside a mislabelled checkpoint: %v", err)
	}
	defer f2.Close()
	if got := f2.AppliedSeq(); got != 40 {
		t.Fatalf("reopened AppliedSeq = %d, want 40", got)
	}
	verifyPrefix(t, f2, ops, 40)
}
