package kwsc

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"
)

func TestQueryRequestValidate(t *testing.T) {
	valid := func() *QueryRequest {
		return &QueryRequest{
			Rect:     &RectWire{Lo: []float64{0, 0}, Hi: []float64{1, 1}},
			Keywords: []Keyword{1, 2},
		}
	}
	cases := []struct {
		name    string
		mutate  func(*QueryRequest)
		wantErr bool
	}{
		{"valid-rect", func(r *QueryRequest) {}, false},
		{"valid-keyword-only", func(r *QueryRequest) { r.Rect = nil }, false},
		{"valid-sphere", func(r *QueryRequest) {
			r.Rect = nil
			r.Sphere = &SphereWire{Center: []float64{0.5, 0.5}, Radius: 0.25}
		}, false},
		{"both-shapes", func(r *QueryRequest) {
			r.Sphere = &SphereWire{Center: []float64{0.5, 0.5}, Radius: 0.25}
		}, true},
		{"rect-length-mismatch", func(r *QueryRequest) { r.Rect.Hi = []float64{1} }, true},
		{"rect-wrong-dim", func(r *QueryRequest) {
			r.Rect = &RectWire{Lo: []float64{0}, Hi: []float64{1}}
		}, true},
		{"rect-nan", func(r *QueryRequest) { r.Rect.Lo[0] = math.NaN() }, true},
		{"rect-inverted", func(r *QueryRequest) { r.Rect.Lo[1] = 2 }, true},
		{"sphere-wrong-dim", func(r *QueryRequest) {
			r.Rect = nil
			r.Sphere = &SphereWire{Center: []float64{0.5}, Radius: 0.25}
		}, true},
		{"sphere-negative-radius", func(r *QueryRequest) {
			r.Rect = nil
			r.Sphere = &SphereWire{Center: []float64{0.5, 0.5}, Radius: -1}
		}, true},
		{"sphere-nan-radius", func(r *QueryRequest) {
			r.Rect = nil
			r.Sphere = &SphereWire{Center: []float64{0.5, 0.5}, Radius: math.NaN()}
		}, true},
		{"too-few-keywords", func(r *QueryRequest) { r.Keywords = []Keyword{1} }, true},
		{"too-many-keywords", func(r *QueryRequest) { r.Keywords = []Keyword{1, 2, 3} }, true},
		{"duplicate-keywords", func(r *QueryRequest) { r.Keywords = []Keyword{7, 7} }, true},
		{"negative-limit", func(r *QueryRequest) { r.Limit = -1 }, true},
		{"negative-timeout", func(r *QueryRequest) { r.TimeoutMs = -5 }, true},
		{"negative-budget", func(r *QueryRequest) { r.NodeBudget = -5 }, true},
		{"negative-staleness", func(r *QueryRequest) { r.MaxStalenessMs = -5 }, true},
		// Millisecond counts past what a time.Duration holds would wrap: to a
		// negative timeout (no deadline at all) or to a deadline microseconds
		// away.
		{"largest-timeout", func(r *QueryRequest) { r.TimeoutMs = 9_223_372_036_854 }, false},
		{"timeout-wraps-negative", func(r *QueryRequest) { r.TimeoutMs = 9_223_372_036_855 }, true},
		{"timeout-wraps-short", func(r *QueryRequest) { r.TimeoutMs = 9_223_372_036_854_776 }, true},
		{"largest-staleness", func(r *QueryRequest) { r.MaxStalenessMs = 9_223_372_036_854 }, false},
		{"staleness-wraps-negative", func(r *QueryRequest) { r.MaxStalenessMs = 9_223_372_036_855 }, true},
		{"staleness-wraps-short", func(r *QueryRequest) { r.MaxStalenessMs = 9_223_372_036_854_776 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := valid()
			tc.mutate(req)
			err := req.Validate(2, 2)
			if tc.wantErr {
				if err == nil {
					t.Fatal("want error, got nil")
				}
				if !errors.Is(err, ErrInvalidQuery) {
					t.Fatalf("error %v does not wrap ErrInvalidQuery", err)
				}
			} else if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}

func TestWriteRequestValidate(t *testing.T) {
	cases := []struct {
		name    string
		req     WriteRequest
		wantErr bool
	}{
		{"valid-insert", WriteRequest{Op: OpInsert, Point: []float64{0.1, 0.2}, Doc: []Keyword{1, 2}}, false},
		{"valid-delete", WriteRequest{Op: OpDelete, Handle: 42}, false},
		{"unknown-op", WriteRequest{Op: "upsert"}, true},
		{"empty-op", WriteRequest{}, true},
		{"insert-wrong-dim", WriteRequest{Op: OpInsert, Point: []float64{0.1}, Doc: []Keyword{1}}, true},
		{"insert-nan", WriteRequest{Op: OpInsert, Point: []float64{math.NaN(), 0}, Doc: []Keyword{1}}, true},
		{"insert-inf", WriteRequest{Op: OpInsert, Point: []float64{math.Inf(1), 0}, Doc: []Keyword{1}}, true},
		{"insert-empty-doc", WriteRequest{Op: OpInsert, Point: []float64{0.1, 0.2}}, true},
		{"delete-negative-handle", WriteRequest{Op: OpDelete, Handle: -1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.req.Validate(2)
			if tc.wantErr {
				if err == nil {
					t.Fatal("want error, got nil")
				}
				if !errors.Is(err, ErrInvalidQuery) {
					t.Fatalf("error %v does not wrap ErrInvalidQuery", err)
				}
			} else if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}

func TestQueryRequestGeometry(t *testing.T) {
	// Rect request: bounding rect is the rect itself, no exact region.
	rq := &QueryRequest{Rect: &RectWire{Lo: []float64{0, 0}, Hi: []float64{1, 2}}, Keywords: []Keyword{1, 2}}
	if r := rq.BoundingRect(2); r.Lo[0] != 0 || r.Hi[1] != 2 {
		t.Fatalf("rect bounding box: %+v", r)
	}
	if rq.ExactRegion() != nil {
		t.Fatal("rect request should need no exact filter")
	}

	// Sphere request: bounding box inflates by the radius; exact region is
	// the sphere.
	sq := &QueryRequest{Sphere: &SphereWire{Center: []float64{0.5, 0.5}, Radius: 0.25}, Keywords: []Keyword{1, 2}}
	r := sq.BoundingRect(2)
	if r.Lo[0] != 0.25 || r.Hi[0] != 0.75 {
		t.Fatalf("sphere bounding box: %+v", r)
	}
	exact := sq.ExactRegion()
	if exact == nil || !exact.ContainsPoint(Point{0.5, 0.7}) || exact.ContainsPoint(Point{0.74, 0.74}) {
		t.Fatalf("sphere exact region misbehaves: %v", exact)
	}

	// Keyword-only request: the universe.
	kq := &QueryRequest{Keywords: []Keyword{1, 2}}
	u := kq.BoundingRect(2)
	if !u.ContainsPoint(Point{1e300, -1e300}) {
		t.Fatal("keyword-only bounding box is not the universe")
	}
}

func TestQueryRequestOpts(t *testing.T) {
	// The timeout resolves to a deadline that far past the call.
	deadlineIn := func(t *testing.T, opts QueryOpts, want time.Duration, before time.Time) {
		t.Helper()
		after := time.Now()
		if dl := opts.Policy.Deadline; dl.Before(before.Add(want)) || dl.After(after.Add(want)) {
			t.Fatalf("deadline %v not %v after [%v, %v]", dl, want, before, after)
		}
	}
	req := &QueryRequest{Keywords: []Keyword{1, 2}, Limit: 7, TimeoutMs: 50, NodeBudget: 100}
	before := time.Now()
	opts := req.Opts(2 * time.Second)
	if opts.Limit != 7 || opts.Policy.NodeBudget != 100 || opts.Policy.Done != nil {
		t.Fatalf("opts: %+v", opts)
	}
	deadlineIn(t, opts, 50*time.Millisecond, before)
	// No explicit timeout: the server default applies.
	req.TimeoutMs = 0
	before = time.Now()
	deadlineIn(t, req.Opts(2*time.Second), 2*time.Second, before)
	// Default disabled.
	if dl := req.Opts(0).Policy.Deadline; !dl.IsZero() {
		t.Fatalf("disabled default timeout set deadline %v", dl)
	}
}

// TestWireRoundTrip pins the JSON field names — the /v1 contract.
func TestWireRoundTrip(t *testing.T) {
	req := &QueryRequest{
		Client:   "c",
		Sphere:   &SphereWire{Center: []float64{1, 2}, Radius: 3},
		Keywords: []Keyword{4, 5},
		Limit:    6, TimeoutMs: 7, NodeBudget: 8, MaxStalenessMs: 9,
	}
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"client"`, `"sphere"`, `"center"`, `"radius"`,
		`"keywords"`, `"limit"`, `"timeout_ms"`, `"node_budget"`, `"max_staleness_ms"`} {
		if !bytes.Contains(buf, []byte(field)) {
			t.Fatalf("marshal missing %s: %s", field, buf)
		}
	}
	var back QueryRequest
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Client != "c" || back.Sphere.Radius != 3 || back.Limit != 6 || back.MaxStalenessMs != 9 {
		t.Fatalf("round trip: %+v", back)
	}

	resp := &QueryResponse{IDs: []int64{1, 2}, Count: 2, Truncated: true,
		Shards: []ShardOutcome{{Shard: 0, Reported: 2, Outcome: "ok"}}}
	buf, err = json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"ids"`, `"count"`, `"truncated"`, `"shards"`, `"outcome"`} {
		if !bytes.Contains(buf, []byte(field)) {
			t.Fatalf("response marshal missing %s: %s", field, buf)
		}
	}
}
