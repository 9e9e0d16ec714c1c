package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pselinv"
	"pselinv/internal/dense"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, req *Request) (*http.Response, *Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(url+"/v1/selinv", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		return hr, nil
	}
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return hr, &resp
}

func TestServeDiagonalMatchesSequential(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := &Request{
		Matrix:   MatrixSpec{Kind: "grid2d", NX: 10, NY: 10, Seed: 3},
		Procs:    9,
		Diagonal: true,
	}
	hr, resp := postJSON(t, ts.URL, req)
	if resp == nil {
		t.Fatalf("status %d", hr.StatusCode)
	}
	if resp.Cache != "miss" {
		t.Fatalf("first request cache %q, want miss", resp.Cache)
	}
	if resp.N != 100 || len(resp.Diagonal) != 100 {
		t.Fatalf("n=%d len(diag)=%d", resp.N, len(resp.Diagonal))
	}
	// Reference: the same computation through the library, under the
	// service's default nested-dissection ordering.
	sys, err := pselinv.NewSystem(pselinv.Grid2D(10, 10, 3),
		pselinv.Options{Ordering: pselinv.OrderNestedDissection})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := sys.SelInv()
	if err != nil {
		t.Fatal(err)
	}
	want := inv.Diagonal()
	for i := range want {
		if math.Abs(resp.Diagonal[i]-want[i]) > 1e-9 {
			t.Fatalf("diagonal[%d] = %g, want %g", i, resp.Diagonal[i], want[i])
		}
	}
	if resp.LogAbsDet != sys.LogAbsDet() {
		t.Fatalf("logabsdet %g, want %g", resp.LogAbsDet, sys.LogAbsDet())
	}

	// Same pattern, shifted values: must hit the cache and change values.
	req2 := &Request{
		Matrix:   MatrixSpec{Kind: "grid2d", NX: 10, NY: 10, Seed: 3},
		Shift:    1.5,
		Procs:    9,
		Diagonal: true,
	}
	_, resp2 := postJSON(t, ts.URL, req2)
	if resp2 == nil || resp2.Cache != "hit" {
		t.Fatalf("shifted same-pattern request: %+v, want cache hit", resp2)
	}
	if resp2.Diagonal[0] == resp.Diagonal[0] {
		t.Fatal("shift did not change the inverse")
	}
}

func TestServeMatrixMarketRoundTrip(t *testing.T) {
	_, ts := testServer(t, Config{})
	var mm strings.Builder
	if err := pselinv.Grid2D(6, 6, 5).WriteMatrixMarket(&mm); err != nil {
		t.Fatal(err)
	}
	req := &Request{
		Matrix:   MatrixSpec{Kind: "matrixmarket", Data: mm.String()},
		Procs:    4,
		Diagonal: true,
	}
	hr, resp := postJSON(t, ts.URL, req)
	if resp == nil {
		t.Fatalf("status %d", hr.StatusCode)
	}
	if len(resp.Diagonal) != 36 {
		t.Fatalf("diagonal length %d", len(resp.Diagonal))
	}
}

// TestServeMatrixMarketHostileSizeLine posts uploads whose size line
// declares far more than the body holds. The parser used to trust it —
// a 4·10¹²-entry capacity request ended the process with an unrecoverable
// out-of-memory fault — so the assertion is a 400 each time and a daemon
// that still serves the next request.
func TestServeMatrixMarketHostileSizeLine(t *testing.T) {
	_, ts := testServer(t, Config{})
	const hdr = "%%MatrixMarket matrix coordinate real general\n"
	for _, data := range []string{
		hdr + "2000000 2000000 4000000000000\n",        // entries the body cannot hold
		hdr + "1000000000000 1000000000000 1\n1 1 1\n", // a dimension it cannot fill
		hdr + "-5 -5 -1\n",
	} {
		hr, resp := postJSON(t, ts.URL, &Request{Matrix: MatrixSpec{Kind: "matrixmarket", Data: data}})
		if resp != nil || hr.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q: status %d, want 400", data, hr.StatusCode)
		}
	}
	hr, resp := postJSON(t, ts.URL, &Request{Matrix: MatrixSpec{Kind: "grid2d", NX: 4, NY: 4}, Diagonal: true})
	if resp == nil || len(resp.Diagonal) != 16 {
		t.Fatalf("daemon did not serve the request after the hostile uploads: status %d", hr.StatusCode)
	}
}

// TestServeNonFinitePivotIs422: finite uploaded values whose elimination
// overflows — the second pivot becomes −Inf — are a factorization error, not
// a 200 carrying NaNs (the pivot guard compared |p| < tiny, which is false
// for NaN and ±Inf), and the daemon serves the next request.
func TestServeNonFinitePivotIs422(t *testing.T) {
	_, ts := testServer(t, Config{})
	data := "%%MatrixMarket matrix coordinate real general\n2 2 4\n1 1 1e-200\n2 1 1e200\n1 2 1e200\n2 2 1\n"
	hr, resp := postJSON(t, ts.URL, &Request{Matrix: MatrixSpec{Kind: "matrixmarket", Data: data}, Diagonal: true})
	if resp != nil || hr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("overflowing upload: status %d, want 422", hr.StatusCode)
	}
	hr, resp = postJSON(t, ts.URL, &Request{Matrix: MatrixSpec{Kind: "grid2d", NX: 4, NY: 4}, Diagonal: true})
	if resp == nil || len(resp.Diagonal) != 16 {
		t.Fatalf("daemon did not serve the request after the 422: status %d", hr.StatusCode)
	}
}

// TestServeTopoSchemes runs the topology-aware scheme through the service
// with an explicit packing and checks it produces the same inverse as the
// default scheme (the tree shape never changes values, only message
// routing), and that the response echoes the slug.
func TestServeTopoSchemes(t *testing.T) {
	_, ts := testServer(t, Config{})
	base := &Request{
		Matrix:   MatrixSpec{Kind: "grid2d", NX: 8, NY: 8, Seed: 7},
		Procs:    8,
		Diagonal: true,
	}
	_, ref := postJSON(t, ts.URL, base)
	if ref == nil {
		t.Fatal("baseline request failed")
	}
	for _, slug := range []string{"toposhifted"} {
		req := *base
		req.Scheme = slug
		req.CoresPerNode = 4
		hr, resp := postJSON(t, ts.URL, &req)
		if resp == nil {
			t.Fatalf("%s: status %d", slug, hr.StatusCode)
		}
		if resp.Scheme != slug {
			t.Fatalf("%s: response scheme %q", slug, resp.Scheme)
		}
		for i := range ref.Diagonal {
			if math.Abs(resp.Diagonal[i]-ref.Diagonal[i]) > 1e-12 {
				t.Fatalf("%s: diagonal[%d] = %g, want %g", slug, i, resp.Diagonal[i], ref.Diagonal[i])
			}
		}
	}
	// An unknown scheme — here the removed Bine tree and the removed
	// random-permutation and hybrid ablations — must name every valid slug
	// in the error body.
	for _, retired := range []string{"bine", "randperm", "hybrid"} {
		body, err := json.Marshal(&Request{
			Matrix: MatrixSpec{Kind: "grid2d", NX: 5, NY: 5}, Scheme: retired,
		})
		if err != nil {
			t.Fatal(err)
		}
		hr, err := http.Post(ts.URL+"/v1/selinv", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(hr.Body)
		hr.Body.Close()
		if hr.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", retired, hr.StatusCode)
		}
		if valid := "(valid: " + strings.Join(pselinv.SchemeSlugs(), "|") + ")"; !strings.Contains(string(msg), valid) {
			t.Fatalf("%s: error %q does not list the valid schemes %s", retired, msg, valid)
		}
	}
}

// TestServeBalancers: every balancer slug must be accepted, echoed in the
// response, and produce the cyclic default's diagonal to rounding (the
// owner map changes how reductions are bracketed, never what they sum —
// observed through the service); an unknown slug must
// 400 listing every valid one — the same contract schemes keep.
func TestServeBalancers(t *testing.T) {
	_, ts := testServer(t, Config{})
	base := &Request{
		Matrix:   MatrixSpec{Kind: "grid2d", NX: 8, NY: 8, Seed: 7},
		Procs:    8,
		Diagonal: true,
	}
	_, ref := postJSON(t, ts.URL, base)
	if ref == nil {
		t.Fatal("baseline request failed")
	}
	if ref.Balancer != "cyclic" {
		t.Fatalf("default response balancer %q, want cyclic", ref.Balancer)
	}
	for _, slug := range pselinv.BalancerSlugs() {
		req := *base
		req.Balancer = slug
		hr, resp := postJSON(t, ts.URL, &req)
		if resp == nil {
			t.Fatalf("%s: status %d", slug, hr.StatusCode)
		}
		if resp.Balancer != slug {
			t.Fatalf("%s: response balancer %q", slug, resp.Balancer)
		}
		for i := range ref.Diagonal {
			if math.Abs(resp.Diagonal[i]-ref.Diagonal[i]) > 1e-12 {
				t.Fatalf("%s: diagonal[%d] = %g, want %g", slug, i, resp.Diagonal[i], ref.Diagonal[i])
			}
		}
	}
	// An unknown balancer, the retired nnz and subtree included, must 400
	// naming every valid slug.
	for _, bad := range []string{"zigzag", "nnz", "subtree"} {
		body, err := json.Marshal(&Request{
			Matrix: MatrixSpec{Kind: "grid2d", NX: 5, NY: 5}, Balancer: bad,
		})
		if err != nil {
			t.Fatal(err)
		}
		hr, err := http.Post(ts.URL+"/v1/selinv", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(hr.Body)
		hr.Body.Close()
		if hr.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, hr.StatusCode)
		}
		if !strings.Contains(string(msg), "cyclic|work") {
			t.Fatalf("%s: error %q does not list the valid balancers cyclic|work", bad, msg)
		}
	}
}

// TestServeUnknownNamesListValidSet: an unknown ordering or matrix kind is
// a 400 whose message lists every valid name, as an unknown scheme or
// balancer is; both used to name only the bad value.
func TestServeUnknownNamesListValidSet(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, c := range []struct {
		req  Request
		want string
	}{
		{Request{Matrix: MatrixSpec{Kind: "grid2d", NX: 5, NY: 5}, Ordering: "amd"}, "(valid: natural|rcm|nd|mmd)"},
		{Request{Matrix: MatrixSpec{Kind: "random", N: 20, Deg: 4}},
			"(valid: grid2d|grid3d|dg2d|fe3d|banded|randomsym|randomasym|matrixmarket)"},
	} {
		body, err := json.Marshal(&c.req)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := http.Post(ts.URL+"/v1/selinv", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(hr.Body)
		hr.Body.Close()
		if hr.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), c.want) {
			t.Errorf("%s: status %d, error %q, want 400 listing %s", body, hr.StatusCode, msg, c.want)
		}
	}
}

func TestServeValidation(t *testing.T) {
	_, ts := testServer(t, Config{MaxN: 100, MaxProcs: 16})
	cases := []Request{
		{Matrix: MatrixSpec{Kind: "nope"}},
		{Matrix: MatrixSpec{Kind: "grid2d"}},                                     // missing dims
		{Matrix: MatrixSpec{Kind: "grid2d", NX: 50, NY: 50}},                     // exceeds MaxN
		{Matrix: MatrixSpec{Kind: "grid2d", NX: 5, NY: 5}, Procs: 64},            // exceeds MaxProcs
		{Matrix: MatrixSpec{Kind: "grid2d", NX: 5, NY: 5}, Scheme: "fibonacci"},  // unknown scheme
		{Matrix: MatrixSpec{Kind: "grid2d", NX: 5, NY: 5}, Ordering: "random"},   // unknown ordering
		{Matrix: MatrixSpec{Kind: "grid2d", NX: 5, NY: 5}, Balancer: "zigzag"},   // unknown balancer
		{Matrix: MatrixSpec{Kind: "matrixmarket", Data: "%%MatrixMarket\njunk"}}, // parse error
	}
	for i, req := range cases {
		hr, resp := postJSON(t, ts.URL, &req)
		if resp != nil || hr.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400", i, hr.StatusCode)
		}
	}
	// GET is rejected.
	hr, err := http.Get(ts.URL + "/v1/selinv")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", hr.StatusCode)
	}
}

// TestBackpressure saturates a 1-slot, 1-queue server and verifies the
// overflow requests are rejected with 503 + Retry-After while in-flight
// work completes. The test hook makes occupancy deterministic.
func TestBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, MaxQueue: 1, QueueWait: 5 * time.Second})
	inSlot := make(chan struct{})
	releaseSlot := make(chan struct{})
	var hookOnce sync.Once
	s.testSlowdown = func() {
		hookOnce.Do(func() {
			close(inSlot)
			<-releaseSlot
		})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := &Request{Matrix: MatrixSpec{Kind: "grid2d", NX: 6, NY: 6, Seed: 1}, Procs: 4}
	body, _ := json.Marshal(req)

	type result struct {
		status int
		retry  string
	}
	results := make(chan result, 8)
	do := func() {
		hr, err := http.Post(ts.URL+"/v1/selinv", "application/json", bytes.NewReader(body))
		if err != nil {
			results <- result{status: -1}
			return
		}
		io.Copy(io.Discard, hr.Body)
		hr.Body.Close()
		results <- result{status: hr.StatusCode, retry: hr.Header.Get("Retry-After")}
	}

	go do() // occupies the slot, parks in the hook
	<-inSlot

	// Queue capacity is 1: of the next burst, one waits, the rest bounce.
	const burst = 4
	for i := 0; i < burst; i++ {
		go do()
	}
	var rejected []result
	for len(rejected) < burst-1 {
		r := <-results
		if r.status != http.StatusServiceUnavailable {
			t.Fatalf("burst request got status %d, want 503 (rejected so far: %d)", r.status, len(rejected))
		}
		if r.retry == "" {
			t.Fatal("503 without Retry-After header")
		}
		rejected = append(rejected, r)
	}

	// Unblock the slot: the parked request and the queued one both finish.
	close(releaseSlot)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("completing request got status %d, want 200", r.status)
		}
	}

	// Metrics must reflect the rejections.
	counters, err := ScrapeCounters(http.DefaultClient, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if counters["pselinvd_pool_capacity"] != 1 || counters["pselinvd_queue_capacity"] != 1 {
		t.Fatalf("capacity gauges wrong: %v", counters)
	}
}

func TestTraceEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{TraceRing: 2})
	req := &Request{Matrix: MatrixSpec{Kind: "grid2d", NX: 8, NY: 8, Seed: 1}, Procs: 4, Trace: true}
	hr, resp := postJSON(t, ts.URL, req)
	if resp == nil {
		t.Fatalf("status %d", hr.StatusCode)
	}
	if resp.TracePath == "" {
		t.Fatal("traced request returned no trace path")
	}
	// A trace-only request is an observed run that keeps the timeline alone:
	// no obs path, and nothing under /debug/obs for its id.
	if resp.ObsPath != "" || resp.VolImbalance != 0 {
		t.Fatalf("trace-only request answered with obs fields: %+v", resp)
	}
	if or, err := http.Get(ts.URL + "/debug/obs/" + resp.ID); err != nil {
		t.Fatal(err)
	} else if or.Body.Close(); or.StatusCode != http.StatusNotFound {
		t.Fatalf("obs fetch of a trace-only request: status %d, want 404", or.StatusCode)
	}
	tr, err := http.Get(ts.URL + resp.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch status %d", tr.StatusCode)
	}
	var events []map[string]any
	if err := json.NewDecoder(tr.Body).Decode(&events); err != nil {
		t.Fatalf("trace is not a Chrome trace-event JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace has no events")
	}
	for _, key := range []string{"name", "ph", "ts", "dur", "tid"} {
		if _, ok := events[0][key]; !ok {
			t.Fatalf("trace event missing %q: %v", key, events[0])
		}
	}

	// Unknown id 404s; the index lists retained ids.
	nf, err := http.Get(ts.URL + "/debug/trace/r999999")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace status %d, want 404", nf.StatusCode)
	}
	idx, err := http.Get(ts.URL + "/debug/trace/")
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Body.Close()
	var ids []string
	if err := json.NewDecoder(idx.Body).Decode(&ids); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != resp.ID {
		t.Fatalf("trace index %v, want [%s]", ids, resp.ID)
	}
}

func TestTraceRingEviction(t *testing.T) {
	r := newTraceRing(2)
	r.put("a", record{trace: []byte("1")})
	r.put("b", record{trace: []byte("2"), report: []byte("{}")})
	r.put("c", record{trace: []byte("3")})
	if _, ok := r.get("a"); ok {
		t.Fatal("oldest trace survived ring overflow")
	}
	if _, ok := r.get("c"); !ok {
		t.Fatal("newest trace missing")
	}
	if r.len() != 2 {
		t.Fatalf("ring holds %d traces, want 2", r.len())
	}
	// One ring, two indexes: every record has a trace, "b" alone a report.
	traces := r.ids(func(rec record) []byte { return rec.trace })
	reports := r.ids(func(rec record) []byte { return rec.report })
	if !reflect.DeepEqual(traces, []string{"b", "c"}) || !reflect.DeepEqual(reports, []string{"b"}) {
		t.Fatalf("indexes: traces %v, reports %v", traces, reports)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := testServer(t, Config{})
	// One miss, one hit.
	req := &Request{Matrix: MatrixSpec{Kind: "grid2d", NX: 6, NY: 6, Seed: 2}, Procs: 4}
	if hr, resp := postJSON(t, ts.URL, req); resp == nil {
		t.Fatalf("status %d", hr.StatusCode)
	}
	if hr, resp := postJSON(t, ts.URL, req); resp == nil || resp.Cache != "hit" {
		t.Fatalf("status %d resp %+v", hr.StatusCode, resp)
	}
	hr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	text, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pselinvd_plan_cache_hits_total 1",
		"pselinvd_plan_cache_misses_total 1",
		"pselinvd_requests_total{status=\"ok\"} 2",
		"pselinvd_request_seconds_bucket{phase=\"total\",le=\"+Inf\"} 2",
		"pselinvd_request_seconds_count{phase=\"invert\"} 2",
		"pselinvd_pool_capacity",
		"pselinvd_queue_capacity",
		fmt.Sprintf("pselinvd_build_info{go_version=%q,kernel_workers=\"%d\",engine_slots=\"2\"} 1",
			runtime.Version(), dense.Workers()),
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestServeDagRequest pins the "dag": true request path: the response must
// match a sequential run's diagonal exactly (DAG mode is byte-identical)
// and carry the scheduler summary. The kernel pool degree is raised so
// tasks genuinely offload even on a single-core runner.
func TestServeDagRequest(t *testing.T) {
	dense.SetWorkers(4)
	defer dense.SetWorkers(0)
	_, ts := testServer(t, Config{})
	base := &Request{
		Matrix:   MatrixSpec{Kind: "grid2d", NX: 10, NY: 10, Seed: 7},
		Procs:    4,
		Diagonal: true,
	}
	hr, seq := postJSON(t, ts.URL, base)
	if seq == nil {
		t.Fatalf("status %d", hr.StatusCode)
	}
	if seq.DagTasks != 0 || seq.DagOccupancy != 0 {
		t.Fatalf("sequential response carries dag fields: %+v", seq)
	}
	dagReq := *base
	dagReq.Dag = true
	hr, dag := postJSON(t, ts.URL, &dagReq)
	if dag == nil {
		t.Fatalf("status %d", hr.StatusCode)
	}
	if dag.DagTasks == 0 {
		t.Fatal("dag response reports zero tasks")
	}
	if dag.DagOccupancy < 0 {
		t.Fatalf("negative occupancy %g", dag.DagOccupancy)
	}
	// Both runs fold the same plan's reductions in the same fixed order,
	// whatever the pool schedule, and JSON round-trips float64 exactly.
	for i := range seq.Diagonal {
		if math.Float64bits(dag.Diagonal[i]) != math.Float64bits(seq.Diagonal[i]) {
			t.Fatalf("diagonal[%d]: dag %g vs sequential %g — not bit-identical", i, dag.Diagonal[i], seq.Diagonal[i])
		}
	}
	_, dag2 := postJSON(t, ts.URL, &dagReq)
	if dag2 == nil {
		t.Fatal("dag rerun failed")
	}
	for i := range dag.Diagonal {
		if math.Float64bits(dag2.Diagonal[i]) != math.Float64bits(dag.Diagonal[i]) {
			t.Fatalf("diagonal[%d] not bit-identical across dag reruns", i)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram()
	for i := 0; i < 100; i++ {
		h.observe(0.004) // bucket (0.0025, 0.005]
	}
	if q := h.quantile(0.5); q < 0.0025 || q > 0.005 {
		t.Fatalf("median %g outside the observed bucket", q)
	}
	if !math.IsNaN(newHistogram().quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
}

// TestConcurrentMixedRequests drives several patterns concurrently under
// the race detector: same-pattern requests coalesce or hit, distinct
// patterns coexist, every response is numerically sane.
func TestConcurrentMixedRequests(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 4, MaxQueue: 64, QueueWait: time.Minute})
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 4; g++ {
		for rep := 0; rep < 3; rep++ {
			wg.Add(1)
			go func(g, rep int) {
				defer wg.Done()
				req := &Request{
					Matrix:   MatrixSpec{Kind: "grid2d", NX: 6 + g, NY: 6, Seed: 1},
					Shift:    float64(rep),
					Procs:    4,
					Diagonal: true,
				}
				body, _ := json.Marshal(req)
				hr, err := http.Post(ts.URL+"/v1/selinv", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				defer hr.Body.Close()
				if hr.StatusCode != http.StatusOK {
					msg, _ := io.ReadAll(hr.Body)
					errs <- fmt.Errorf("status %d: %s", hr.StatusCode, msg)
					return
				}
				var resp Response
				if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
					errs <- err
					return
				}
				if len(resp.Diagonal) != resp.N {
					errs <- fmt.Errorf("diagonal length %d != n %d", len(resp.Diagonal), resp.N)
				}
			}(g, rep)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.CacheStats()
	if st.Misses != 4 {
		t.Fatalf("%d misses for 4 distinct patterns: %+v", st.Misses, st)
	}
	if st.Hits+st.Coalesced != 8 {
		t.Fatalf("hits+coalesced = %d, want 8: %+v", st.Hits+st.Coalesced, st)
	}
}

// quantile returns an estimate of the q-quantile (0<q<1) by linear
// interpolation within the containing bucket, as a Prometheus consumer
// computes it from the buckets /metrics exposes.
func (h *histogram) quantile(q float64) float64 {
	if h.total == 0 {
		return math.NaN()
	}
	rank := q * float64(h.total)
	var seen float64
	lo := 0.0
	for i, c := range h.counts {
		hi := 60.0 * 2 // cap for the +Inf bucket
		if i < len(histBuckets) {
			hi = histBuckets[i]
		}
		if seen+float64(c) >= rank {
			if c == 0 {
				return hi
			}
			frac := (rank - seen) / float64(c)
			return lo + frac*(hi-lo)
		}
		seen += float64(c)
		lo = hi
	}
	return lo
}
