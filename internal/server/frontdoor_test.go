package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"pselinv"
)

// TestGeneratorDimensionCheckedBeforeBuild: every generator kind's
// dimension follows from its parameters, so the MaxN limit is applied
// before anything is generated — including when the product overflows.
func TestGeneratorDimensionCheckedBeforeBuild(t *testing.T) {
	s := New(Config{MaxN: 1000})
	const big = math.MaxInt/2 + 1 // big*big wraps to 0, big*2 to a negative
	cases := []struct {
		fits  MatrixSpec
		n     int
		over  MatrixSpec
		wraps MatrixSpec
	}{
		{MatrixSpec{Kind: "grid2d", NX: 4, NY: 5}, 20,
			MatrixSpec{Kind: "grid2d", NX: 100000, NY: 100000}, MatrixSpec{Kind: "grid2d", NX: big, NY: big}},
		{MatrixSpec{Kind: "grid3d", NX: 2, NY: 3, NZ: 4}, 24,
			MatrixSpec{Kind: "grid3d", NX: 11, NY: 10, NZ: 10}, MatrixSpec{Kind: "grid3d", NX: big, NY: 2, NZ: big}},
		{MatrixSpec{Kind: "dg2d", NX: 3, NY: 3, Dofs: 2}, 18,
			MatrixSpec{Kind: "dg2d", NX: 10, NY: 10, Dofs: 11}, MatrixSpec{Kind: "dg2d", NX: 2, NY: big, Dofs: big}},
		{MatrixSpec{Kind: "fe3d", NX: 2, NY: 2, NZ: 2, Dofs: 3}, 24,
			MatrixSpec{Kind: "fe3d", NX: 10, NY: 10, NZ: 10, Dofs: 2}, MatrixSpec{Kind: "fe3d", NX: big, NY: big, NZ: big, Dofs: big}},
		{MatrixSpec{Kind: "banded", N: 30, BW: 2}, 30,
			MatrixSpec{Kind: "banded", N: 1001, BW: 2}, MatrixSpec{Kind: "banded", N: math.MaxInt, BW: 2}},
		{MatrixSpec{Kind: "randomsym", N: 30, Deg: 3}, 30,
			MatrixSpec{Kind: "randomsym", N: 1001, Deg: 3}, MatrixSpec{Kind: "randomsym", N: math.MaxInt, Deg: 3}},
		{MatrixSpec{Kind: "randomasym", N: 30, Deg: 3}, 30,
			MatrixSpec{Kind: "randomasym", N: 1001, Deg: 3}, MatrixSpec{Kind: "randomasym", N: math.MaxInt, Deg: 3}},
	}
	for _, c := range cases {
		gen, herr := s.matrixSource(c.fits)
		if herr != nil {
			t.Errorf("%s: %v", c.fits.Kind, herr)
			continue
		}
		if m, herr := gen(); herr != nil || m.N() != c.n {
			t.Errorf("%s: generated n=%d (%v), spec says %d", c.fits.Kind, m.N(), herr, c.n)
		}
		for _, spec := range []MatrixSpec{c.over, c.wraps} {
			if gen, herr := s.matrixSource(spec); herr == nil || herr.status != http.StatusBadRequest || gen != nil {
				t.Errorf("%+v: got %v, want a 400 and nothing to generate", spec, herr)
			}
		}
	}

	// The 60-byte request from the wild: refused at the door, not after a
	// 10^10-row Laplacian was generated.
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	start := time.Now()
	for _, path := range []string{"/v1/selinv", "/v1/selinv/batch"} {
		hr, err := http.Post(ts.URL+path, "application/json",
			strings.NewReader(`{"matrix":{"kind":"grid2d","nx":100000,"ny":100000},"poles":[{"z_im":1}]}`))
		if err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if hr.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, hr.StatusCode)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("refusing the oversized generator took %v", d)
	}
}

// TestMatrixMarketSizeCheckedBeforeAdmission: an upload whose size line
// declares more than MaxN rows is a 400 at the door, on both endpoints —
// read off the size line, with every engine slot held elsewhere and no
// queue, so neither a slot nor a parse of the body is spent on it.
func TestMatrixMarketSizeCheckedBeforeAdmission(t *testing.T) {
	const maxN = 100
	s, ts := testServer(t, Config{MaxN: maxN, MaxQueue: -1})
	for range cap(s.slots) {
		s.slots <- struct{}{}
	}
	defer func() {
		for range cap(s.slots) {
			<-s.slots
		}
	}()
	var mm strings.Builder
	fmt.Fprintf(&mm, "%%%%MatrixMarket matrix coordinate real general\n%% comment\n\n%d %d %d\n", maxN+1, maxN+1, maxN+1)
	for i := 1; i <= maxN+1; i++ {
		fmt.Fprintf(&mm, "%d %d 4\n", i, i)
	}
	spec := MatrixSpec{Kind: "matrixmarket", Data: mm.String()}
	if gen, herr := s.matrixSource(spec); herr == nil || herr.status != http.StatusBadRequest || gen != nil {
		t.Fatalf("matrixSource: got %v, want a 400 and nothing to parse", herr)
	}
	for path, req := range map[string]any{
		"/v1/selinv":       Request{Matrix: spec},
		"/v1/selinv/batch": BatchRequest{Matrix: spec, Poles: []PoleSpec{{ZIm: 1}}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(hr.Body)
		hr.Body.Close()
		if hr.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "exceeds server limit") {
			t.Errorf("%s: status %d %q, want 400 for the size line", path, hr.StatusCode, msg)
		}
	}
}

// repeat is an endless stream of one byte.
type repeat byte

func (b repeat) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestOversizedBodyRejected: both endpoints stop reading at maxBodyBytes,
// answer 413 and count the request as bad — whether the client declares the
// length or streams the body chunked with no Content-Length.
func TestOversizedBodyRejected(t *testing.T) {
	s, ts := testServer(t, Config{})
	const prefix = `{"matrix":{"kind":"matrixmarket","data":"`
	for _, path := range []string{"/v1/selinv", "/v1/selinv/batch"} {
		for _, chunked := range []bool{false, true} {
			// A syntactically fine prefix, then a string that never ends.
			body := io.MultiReader(strings.NewReader(prefix), io.LimitReader(repeat('1'), maxBodyBytes))
			req, err := http.NewRequest(http.MethodPost, ts.URL+path, body)
			if err != nil {
				t.Fatal(err)
			}
			req.ContentLength = int64(len(prefix) + maxBodyBytes)
			if chunked {
				req.ContentLength, req.TransferEncoding = 0, []string{"chunked"}
			}
			hr, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			hr.Body.Close()
			if hr.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("%s (chunked %v): status %d, want 413", path, chunked, hr.StatusCode)
			}
		}
	}
	var b bytes.Buffer
	s.metrics.write(&b, s.cache.stats(), gauges{})
	if want := `pselinvd_requests_total{status="bad_request"} 4`; !strings.Contains(b.String(), want) {
		t.Errorf("/metrics lacks %q", want)
	}
}

// TestTrailingDataRejected: a body is one JSON value. Whitespace may follow
// it; anything else — a second value, stray bytes — is a 400 on both
// endpoints.
func TestTrailingDataRejected(t *testing.T) {
	_, ts := testServer(t, Config{})
	const req = `{"matrix":{"kind":"grid2d","nx":4,"ny":4},"procs":1,"poles":[{"z_im":1}]}`
	for _, path := range []string{"/v1/selinv", "/v1/selinv/batch"} {
		for trailer, want := range map[string]int{
			" \n":     http.StatusOK,
			" x":      http.StatusBadRequest,
			"{}":      http.StatusBadRequest,
			"\n[1]\n": http.StatusBadRequest,
		} {
			hr, err := http.Post(ts.URL+path, "application/json", strings.NewReader(req+trailer))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, hr.Body)
			hr.Body.Close()
			if hr.StatusCode != want {
				t.Errorf("%s with %q after the object: status %d, want %d", path, trailer, hr.StatusCode, want)
			}
		}
	}
}

// TestNegativeCoresPerNodeRejected: a negative packing is a 400 naming the
// field on both endpoints — not a plan-cache key of its own under which
// every rank lands on one node and toposhifted builds a different plan.
func TestNegativeCoresPerNodeRejected(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/selinv", "/v1/selinv/batch"} {
		hr, err := http.Post(ts.URL+path, "application/json", strings.NewReader(
			`{"matrix":{"kind":"grid2d","nx":4,"ny":4},"poles":[{"z_im":1}],"scheme":"toposhifted","cores_per_node":-5}`))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(hr.Body)
		hr.Body.Close()
		if hr.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "cores_per_node") {
			t.Errorf("%s: status %d %q, want a 400 naming cores_per_node", path, hr.StatusCode, msg)
		}
	}
}

// FuzzRequestJSON drives arbitrary bytes through the front door — decode,
// endpoint validation, knob resolution — as either request type. Whatever
// the bytes, it must not panic, and it ends in a 4xx or in an admission
// whose every knob is inside the server's limits.
func FuzzRequestJSON(f *testing.F) {
	f.Add([]byte(`{"matrix":{"kind":"grid2d","nx":8,"ny":8},"procs":4,"diagonal":true}`))
	f.Add([]byte(`{"matrix":{"kind":"fe3d","nx":2,"ny":2,"nz":2,"dofs":3},"z_re":0.5,"z_im":1,"scheme":"toposhifted","cores_per_node":4,"balancer":"work","ordering":"rcm","timeout_ms":50}`))
	f.Add([]byte(`{"matrix":{"kind":"grid2d","nx":5,"ny":5},"poles":[{"z_re":0.1,"z_im":1,"w_re":-1}],"density":true}`))
	f.Add([]byte(`{"matrix":{"kind":"banded","n":30,"bw":2},"num_poles":4,"beta":2,"mu":0.5,"seed":7}`))
	f.Add([]byte(`{"matrix":{"kind":"matrixmarket","data":"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2\n"}}`))
	f.Add([]byte(`{"matrix":{"kind":"grid2d","nx":100000,"ny":100000}}`))
	f.Add([]byte(`{"matrix":{"kind":"grid2d","nx":4,"ny":4},"num_poles":1000000000000,"beta":1}`))
	f.Add([]byte(`{"matrix":{"kind":"grid2d","nx":4,"ny":4},"timeout_ms":9223372036854775807}`))
	f.Add([]byte(`{"procs":-1}`))
	f.Add([]byte(`{"matrix":{"kind":"grid2d","nx":4,"ny":4},"cores_per_node":-5}`))
	f.Add([]byte(`[1,2`))
	s := New(Config{MaxN: 4096, MaxProcs: 64, MaxBatchPoles: 8})
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, req := range []request{&Request{}, &BatchRequest{}} {
			adm, herr := s.front(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), req)
			if herr != nil {
				if herr.status < 400 || herr.status > 499 {
					t.Fatalf("%T refused with status %d, want a 4xx", req, herr.status)
				}
				continue
			}
			if adm.procs < 1 || adm.procs > s.cfg.MaxProcs || adm.seed == 0 || adm.coresPerNode < 0 ||
				adm.timeout <= 0 || adm.timeout > s.cfg.MaxTimeout || adm.ordName == "" || adm.generate == nil {
				t.Fatalf("%T admitted outside the limits: %+v", req, adm)
			}
			if br, isBatch := req.(*BatchRequest); isBatch && (len(br.Poles) < 1 || len(br.Poles) > s.cfg.MaxBatchPoles) {
				t.Fatalf("batch admitted with %d poles", len(br.Poles))
			}
		}
	})
}

// TestServeWarmRequestAllocBudget holds a plan-cache-hit /v1/selinv upload —
// bench/'s serve_upload_c2 request: DG2D 14×14×4 as inline MatrixMarket, a
// shift, 16 ranks, the diagonal — to a bytes-per-request budget. The body is
// read into a buffer from the server's free list and the factor slab comes
// back from the previous request's System.Release; what is left (2.83–2.91
// MB, with and without the race detector; 5.8 with a json.Decoder and a
// fresh slab per request) is mostly the copy and the parse of the upload.
// The budget is that plus about a fifth.
func TestServeWarmRequestAllocBudget(t *testing.T) {
	const budgetMB = 3.4
	var mm strings.Builder
	if err := pselinv.DG2D(14, 14, 4, 1).WriteMatrixMarket(&mm); err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, 4)
	for i := range bodies {
		var err error
		if bodies[i], err = json.Marshal(&Request{
			Matrix: MatrixSpec{Kind: "matrixmarket", Data: mm.String()},
			Shift:  0.5 + float64(i)/4, Procs: 16, Diagonal: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	h := New(Config{}).Handler()
	post := func(i int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/selinv", bytes.NewReader(bodies[i%len(bodies)])))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	for i := range 3 { // the miss, then hits that fill the pools
		post(i)
	}
	const reqs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range reqs {
		post(i)
	}
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / reqs / 1e6; mb > budgetMB {
		t.Fatalf("warm upload allocates %.2f MB/request, budget %.1f", mb, budgetMB)
	} else {
		t.Logf("warm upload: %.2f MB/request", mb)
	}
}
