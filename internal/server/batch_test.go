package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"pselinv"
)

// postBatch sends a batch request and parses the NDJSON stream into its
// typed records. A non-200 status returns the raw response only.
func postBatch(t *testing.T, url string, req *BatchRequest) (status int, hdr *BatchHeader, recs []*BatchPoleResult, trailer *BatchTrailer, serr *BatchStreamError) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(url+"/v1/selinv/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		io.Copy(io.Discard, hr.Body)
		return hr.StatusCode, nil, nil, nil, nil
	}
	if ct := hr.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("batch content type %q", ct)
	}
	sc := bufio.NewScanner(hr.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch probe.Type {
		case "header":
			hdr = &BatchHeader{}
			if err := json.Unmarshal(line, hdr); err != nil {
				t.Fatal(err)
			}
		case "pole":
			rec := &BatchPoleResult{}
			if err := json.Unmarshal(line, rec); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
		case "done":
			trailer = &BatchTrailer{}
			if err := json.Unmarshal(line, trailer); err != nil {
				t.Fatal(err)
			}
		case "error":
			serr = &BatchStreamError{}
			if err := json.Unmarshal(line, serr); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("unknown record type %q", probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return hr.StatusCode, hdr, recs, trailer, serr
}

// TestServeComplexPole pins the single-pole complex path of /v1/selinv
// against the library's serial complex reference, on an upload of symmetric
// values (which must run, and report, the symmetric path) and on the same
// pattern Asymmetrize'd (the general path): the four-rank engine brackets
// its reductions differently from the serial loop, so the two agree within
// the 1e-9 parity tolerance.
func TestServeComplexPole(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, symmetric := range []bool{true, false} {
		gen := pselinv.Grid2D(8, 8, 5)
		if !symmetric {
			gen.Asymmetrize(11, 0.5)
		}
		var mm strings.Builder
		if err := gen.WriteMatrixMarket(&mm); err != nil {
			t.Fatal(err)
		}
		// The reference analyzes the upload as the daemon does: no geometry.
		m, err := pselinv.FromMatrixMarket(strings.NewReader(mm.String()), "upload")
		if err != nil {
			t.Fatal(err)
		}
		req := &Request{
			Matrix:   MatrixSpec{Kind: "matrixmarket", Data: mm.String()},
			ZRe:      0.7,
			ZIm:      1.3,
			Procs:    4,
			Diagonal: true,
		}
		hr, resp := postJSON(t, ts.URL, req)
		if resp == nil {
			t.Fatalf("status %d", hr.StatusCode)
		}
		if !resp.Complex || resp.Symmetric != symmetric {
			t.Fatalf("complex run flags on a symmetric=%v upload: complex=%v symmetric=%v", symmetric, resp.Complex, resp.Symmetric)
		}
		if len(resp.Diagonal) != 0 {
			t.Fatal("complex response carries a real diagonal")
		}
		sym, err := pselinv.AnalyzePattern(m, pselinv.Options{Ordering: pselinv.OrderNestedDissection})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := sym.FactorizeShifted(m, complex(0.7, 1.3))
		if err != nil {
			t.Fatal(err)
		}
		inv, err := sys.SelInv()
		if err != nil {
			t.Fatal(err)
		}
		want := inv.DiagonalComplex()
		if len(resp.DiagonalRe) != len(want) || len(resp.DiagonalIm) != len(want) {
			t.Fatalf("diagonal lengths %d/%d, want %d", len(resp.DiagonalRe), len(resp.DiagonalIm), len(want))
		}
		for i, v := range want {
			if !(math.Abs(resp.DiagonalRe[i]-real(v)) <= 1e-9 && math.Abs(resp.DiagonalIm[i]-imag(v)) <= 1e-9) {
				t.Fatalf("symmetric=%v: diagonal[%d] = (%g, %g), want %v", symmetric, i, resp.DiagonalRe[i], resp.DiagonalIm[i], v)
			}
		}
		ld, err := sys.LogDet()
		if err != nil {
			t.Fatal(err)
		}
		if resp.LogDetRe != real(ld) || resp.LogDetIm != imag(ld) {
			t.Fatalf("logdet (%g, %g), want %v", resp.LogDetRe, resp.LogDetIm, ld)
		}
	}
	// A real pole off the shift field is rejected.
	bad := &Request{Matrix: MatrixSpec{Kind: "grid2d", NX: 5, NY: 5}, ZRe: 2.0}
	if hr, resp := postJSON(t, ts.URL, bad); resp != nil || hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("real-axis pole: status %d, want 400", hr.StatusCode)
	}
}

// TestServeBatchMatchesSinglePoles is the endpoint's parity contract:
// every streamed pole record must match the equivalent single-pole
// /v1/selinv request bit for bit — same factorization, same engine
// template, same wire encoding — and the density trailer must equal the
// weighted accumulation of the streamed diagonals.
func TestServeBatchMatchesSinglePoles(t *testing.T) {
	_, ts := testServer(t, Config{})
	poles := []PoleSpec{
		{ZRe: 50, ZIm: 1.5707963267948966, WRe: -1, WIm: 0},
		{ZRe: 50, ZIm: 4.71238898038469, WRe: -1, WIm: 0.25},
		{ZRe: 49.5, ZIm: 7.853981633974483, WRe: -0.5, WIm: -0.125},
	}
	breq := &BatchRequest{
		Matrix:   MatrixSpec{Kind: "grid2d", NX: 8, NY: 8, Seed: 3},
		Poles:    poles,
		Procs:    4,
		Scheme:   "shifted",
		Balancer: "work",
		Seed:     7,
		Diagonal: true,
		Density:  true,
	}
	status, hdr, recs, trailer, serr := postBatch(t, ts.URL, breq)
	if status != http.StatusOK || serr != nil {
		t.Fatalf("status %d, stream error %+v", status, serr)
	}
	if hdr == nil || trailer == nil {
		t.Fatal("stream missing header or trailer")
	}
	if hdr.Poles != len(poles) || hdr.Cache != "miss" || hdr.Scheme != "shifted" || hdr.Balancer != "work" {
		t.Fatalf("header %+v", hdr)
	}
	if len(recs) != len(poles) || trailer.Poles != len(poles) {
		t.Fatalf("%d pole records, trailer %d, want %d", len(recs), trailer.Poles, len(poles))
	}

	density := make([]float64, hdr.N)
	for i := range density {
		density[i] = 0.5
	}
	for l, rec := range recs {
		if rec.Index != l {
			t.Fatalf("record %d has index %d (stream must be in pole order)", l, rec.Index)
		}
		sreq := &Request{
			Matrix:   breq.Matrix,
			ZRe:      poles[l].ZRe,
			ZIm:      poles[l].ZIm,
			Procs:    breq.Procs,
			Scheme:   breq.Scheme,
			Balancer: breq.Balancer,
			Seed:     breq.Seed,
			Diagonal: true,
		}
		hr, single := postJSON(t, ts.URL, sreq)
		if single == nil {
			t.Fatalf("pole %d single request: status %d", l, hr.StatusCode)
		}
		if single.Cache != "hit" {
			t.Fatalf("pole %d single request cache %q: batch must share the plan cache", l, single.Cache)
		}
		if math.Float64bits(rec.LogDetRe) != math.Float64bits(single.LogDetRe) ||
			math.Float64bits(rec.LogDetIm) != math.Float64bits(single.LogDetIm) {
			t.Fatalf("pole %d logdet (%g, %g) vs single (%g, %g)",
				l, rec.LogDetRe, rec.LogDetIm, single.LogDetRe, single.LogDetIm)
		}
		for i := range single.DiagonalRe {
			if math.Float64bits(rec.DiagonalRe[i]) != math.Float64bits(single.DiagonalRe[i]) ||
				math.Float64bits(rec.DiagonalIm[i]) != math.Float64bits(single.DiagonalIm[i]) {
				t.Fatalf("pole %d diagonal[%d]: batch (%g, %g) vs single (%g, %g)",
					l, i, rec.DiagonalRe[i], rec.DiagonalIm[i], single.DiagonalRe[i], single.DiagonalIm[i])
			}
		}
		// Accumulate the density exactly as the server does: complex
		// multiply of the weight against each diagonal entry, in pole order.
		wt := complex(poles[l].WRe, poles[l].WIm)
		for i := range density {
			density[i] += real(wt * complex(rec.DiagonalRe[i], rec.DiagonalIm[i]))
		}
	}
	if len(trailer.Density) != hdr.N {
		t.Fatalf("trailer density length %d, want %d", len(trailer.Density), hdr.N)
	}
	for i := range density {
		if math.Float64bits(trailer.Density[i]) != math.Float64bits(density[i]) {
			t.Fatalf("density[%d] = %g, recomputed %g", i, trailer.Density[i], density[i])
		}
	}

	// The batch counters must reflect the run.
	counters, err := ScrapeCounters(http.DefaultClient, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if counters["pselinvd_batch_runs_total"] != 1 || counters["pselinvd_batch_poles_total"] != uint64(len(poles)) {
		t.Fatalf("batch counters: runs=%v poles=%v", counters["pselinvd_batch_runs_total"], counters["pselinvd_batch_poles_total"])
	}
}

// TestServeBatchMatsubara exercises the generated-pole form: num_poles +
// beta + mu must produce exactly the Matsubara expansion the library's
// FermiOperatorDensity computes.
func TestServeBatchMatsubara(t *testing.T) {
	_, ts := testServer(t, Config{})
	breq := &BatchRequest{
		Matrix:   MatrixSpec{Kind: "grid2d", NX: 6, NY: 6, Seed: 2},
		NumPoles: 4,
		Beta:     2.0,
		Mu:       50.0,
		Procs:    1,
		Density:  true,
	}
	status, hdr, recs, trailer, serr := postBatch(t, ts.URL, breq)
	if status != http.StatusOK || serr != nil {
		t.Fatalf("status %d, stream error %+v", status, serr)
	}
	if hdr.Poles != 4 || len(recs) != 4 || trailer == nil {
		t.Fatalf("header %+v, %d records", hdr, len(recs))
	}
	want, err := pselinv.FermiOperatorDensity(pselinv.Grid2D(6, 6, 2), 2.0, 50.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(trailer.Density) != len(want) {
		t.Fatalf("density length %d, want %d", len(trailer.Density), len(want))
	}
	for i := range want {
		if math.Abs(trailer.Density[i]-want[i]) > 1e-12 {
			t.Fatalf("density[%d] = %g, library %g", i, trailer.Density[i], want[i])
		}
	}
}

func TestServeBatchValidation(t *testing.T) {
	_, ts := testServer(t, Config{MaxBatchPoles: 2})
	cases := []BatchRequest{
		{Matrix: MatrixSpec{Kind: "grid2d", NX: 5, NY: 5}},                                                    // no poles at all
		{Matrix: MatrixSpec{Kind: "grid2d", NX: 5, NY: 5}, NumPoles: 2},                                       // matsubara without beta
		{Matrix: MatrixSpec{Kind: "grid2d", NX: 5, NY: 5}, Poles: []PoleSpec{{ZRe: 1}}},                       // pole on the real axis
		{Matrix: MatrixSpec{Kind: "grid2d", NX: 5, NY: 5}, Poles: []PoleSpec{{ZIm: 1}}, NumPoles: 2, Beta: 2}, // both forms
		{Matrix: MatrixSpec{Kind: "grid2d", NX: 5, NY: 5},
			Poles: []PoleSpec{{ZIm: 1}, {ZIm: 2}, {ZIm: 3}}}, // exceeds MaxBatchPoles
		{Matrix: MatrixSpec{Kind: "nope"}, Poles: []PoleSpec{{ZIm: 1}}},                                      // bad matrix
		{Matrix: MatrixSpec{Kind: "grid2d", NX: 5, NY: 5}, Poles: []PoleSpec{{ZIm: 1}}, Scheme: "fibonacci"}, // bad scheme
	}
	for i, req := range cases {
		status, _, _, _, _ := postBatch(t, ts.URL, &req)
		if status != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400", i, status)
		}
	}
	hr, err := http.Get(ts.URL + "/v1/selinv/batch")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", hr.StatusCode)
	}
	// The metrics page must carry the batch series even before a run.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, want := range []string{"pselinvd_batch_runs_total 0", "pselinvd_batch_poles_total 0"} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}
