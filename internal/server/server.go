// Package server is the serving layer over the selected-inversion
// pipeline: a long-lived HTTP/JSON service for the PEXSI-shaped workload
// where many requests share one sparsity pattern and differ only in
// numeric values (pole shifts, SCF updates). The value-independent half of
// each problem — ordering, supernodal symbolic analysis, communication
// plans, per-rank engine programs — is cached per pattern fingerprint, so
// warm requests pay only permute + numeric factorization + the parallel
// sweep. A bounded engine pool applies backpressure (503 + Retry-After)
// when saturated, and /metrics + /debug/trace expose cache effectiveness,
// latency histograms and per-request Chrome traces.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pselinv"
	"pselinv/internal/dense"
	"pselinv/internal/ordering"
)

// Config sizes the server. The zero value is usable: every field has a
// production-minded default applied by New.
type Config struct {
	// Workers bounds concurrently executing inversion requests (engine
	// slots). Default 2: each simulated run already fans out across the
	// shared dense kernel pool, so a small number of concurrent engines
	// saturates the machine.
	Workers int
	// MaxQueue bounds requests waiting for a slot; beyond it requests are
	// rejected immediately with 503. Default 8.
	MaxQueue int
	// QueueWait bounds how long an admitted waiter may queue before being
	// rejected with 503. Default 2s.
	QueueWait time.Duration
	// CacheSize bounds the symbolic-plan cache (patterns). Default 32.
	CacheSize int
	// TraceRing bounds the retained records of observed requests — each a
	// Chrome trace and, for "obs" requests, the report. Default 16.
	TraceRing int
	// MaxN and MaxProcs cap request size. Defaults 20000 and 256.
	MaxN     int
	MaxProcs int
	// DefaultTimeout/MaxTimeout bound the per-request engine timeout.
	// Defaults 60s / 5m.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBatchPoles caps the pole count of one /v1/selinv/batch request
	// (the whole batch holds a single engine slot). Default 64.
	MaxBatchPoles int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	} else if c.MaxQueue == 0 {
		c.MaxQueue = 8
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 32
	}
	if c.TraceRing <= 0 {
		c.TraceRing = 16
	}
	if c.MaxN <= 0 {
		c.MaxN = 20000
	}
	if c.MaxProcs <= 0 {
		c.MaxProcs = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxBatchPoles <= 0 {
		c.MaxBatchPoles = 64
	}
	return c
}

// Server is the HTTP serving layer. Create with New, mount Handler.
type Server struct {
	cfg     Config
	cache   *symCache
	metrics *metrics
	slots   chan struct{}
	waiting atomic.Int64
	reqID   atomic.Uint64
	traces  *traceRing
	// bodyBufs holds Workers free request-body buffers, one per request the
	// engine slots run at once; unlike a sync.Pool, no collection empties it.
	bodyBufs chan *bytes.Buffer

	// testSlowdown, when non-nil, runs while a slot is held — test hook to
	// make saturation deterministic.
	testSlowdown func()
}

// New builds a server from the config (zero value fine).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		cache:    newSymCache(cfg.CacheSize),
		metrics:  newMetrics(),
		slots:    make(chan struct{}, cfg.Workers),
		traces:   newTraceRing(cfg.TraceRing),
		bodyBufs: make(chan *bytes.Buffer, cfg.Workers),
	}
}

// Handler returns the HTTP mux: POST /v1/selinv, POST /v1/selinv/batch,
// GET /metrics, GET /debug/trace/{id}, GET /debug/obs/{id}, GET /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/selinv", s.handleSelInv)
	mux.HandleFunc("/v1/selinv/batch", s.handleSelInvBatch)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/trace/", s.handleTrace)
	mux.HandleFunc("/debug/obs/", s.handleObs)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// CacheStats exposes the plan-cache counters (used by the load generator
// and tests; /metrics carries the same numbers).
func (s *Server) CacheStats() CacheStats { return s.cache.stats() }

// ErrSaturated is returned by admission control when the pool and queue
// are full.
var ErrSaturated = errors.New("server: all engine slots busy and queue full")

// acquire implements admission control: immediate admission when a slot is
// free; otherwise the request may wait in a bounded queue for a bounded
// time; beyond either bound it is rejected so the caller can back off
// (503 + Retry-After).
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.slots <- struct{}{}:
		return nil
	default:
	}
	if s.waiting.Add(1) > int64(s.cfg.MaxQueue) {
		s.waiting.Add(-1)
		return ErrSaturated
	}
	defer s.waiting.Add(-1)
	t := time.NewTimer(s.cfg.QueueWait)
	defer t.Stop()
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-t.C:
		return ErrSaturated
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.slots }

// MatrixSpec describes the request matrix: either a named generator with
// its parameters, or inline MatrixMarket text. Generators are
// deterministic in their parameters, so a spec is a compact way for
// clients (and the load generator) to request same-pattern families.
type MatrixSpec struct {
	Kind string `json:"kind"` // grid2d|grid3d|dg2d|fe3d|banded|randomsym|randomasym|matrixmarket
	NX   int    `json:"nx,omitempty"`
	NY   int    `json:"ny,omitempty"`
	NZ   int    `json:"nz,omitempty"`
	Dofs int    `json:"dofs,omitempty"`
	N    int    `json:"n,omitempty"`
	Deg  int    `json:"deg,omitempty"`
	BW   int    `json:"bw,omitempty"`
	Seed int64  `json:"seed,omitempty"`
	// Data is the MatrixMarket coordinate text (kind "matrixmarket").
	Data string `json:"data,omitempty"`
}

// Request is the /v1/selinv request body.
type Request struct {
	Matrix MatrixSpec `json:"matrix"`
	// Shift adds σ to the diagonal (the pole transformation A + σI);
	// it never changes the pattern, so shifted families share cache
	// entries.
	Shift float64 `json:"shift,omitempty"`
	// ZRe/ZIm select the complex-pole kernel: when z_im is nonzero the
	// system is factorized as A − zI with z = z_re + i·z_im (the per-pole
	// PEXSI problem) and the selected inverse is complex — the diagonal
	// comes back as diagonal_re/diagonal_im and the response carries
	// log det(A − zI). The shift keeps the matrix's value symmetry, which
	// selects the communication path as for real requests (the response's
	// "symmetric" says which). Reductions fold in an order fixed by the
	// plan, so a run is bit-reproducible for one (procs, scheme, balancer,
	// seed) and within 1e-9 of the serial reference at every rank count.
	// A pole on the real axis (z_re set, z_im zero) is
	// rejected: the shifted system could be singular there — use "shift"
	// for real diagonal shifts.
	ZRe float64 `json:"z_re,omitempty"`
	ZIm float64 `json:"z_im,omitempty"`
	// Procs is the simulated rank count (default 16).
	Procs int `json:"procs,omitempty"`
	// Scheme selects the collective tree (default shifted); any slug from
	// pselinv.SchemeSlugs is accepted.
	Scheme string `json:"scheme,omitempty"`
	// CoresPerNode sets the rank→node packing consumed by toposhifted; 0
	// keeps the Edison-style default of 24 ranks per node and a negative
	// value is a 400. Other schemes ignore it.
	CoresPerNode int `json:"cores_per_node,omitempty"`
	// Balancer selects the supernode→process mapping strategy (default
	// cyclic); any slug from pselinv.BalancerSlugs is accepted:
	// cyclic|work. The mapping changes the communication plan
	// but never the computed values.
	Balancer string `json:"balancer,omitempty"`
	// Ordering selects the fill-reducing ordering: nd|natural|rcm|mmd.
	// The service default is nested dissection — the expensive ordering is
	// exactly what the plan cache amortizes across a same-pattern family.
	Ordering string `json:"ordering,omitempty"`
	// Seed is the tree-shift seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Diagonal requests diag(A⁻¹) in the response (the PEXSI quantity).
	Diagonal bool `json:"diagonal,omitempty"`
	// Trace records a per-rank Chrome trace retrievable at the returned
	// trace path.
	Trace bool `json:"trace,omitempty"`
	// Obs instruments the run's communication substrate: the response
	// carries an obs path serving the full JSON report (per-class traffic
	// matrices, queue/wait telemetry, measured forwarding chains), the
	// trace path carries the merged compute+collective timeline, and the
	// run's aggregates feed the pselinvd_obs_* metrics.
	Obs bool `json:"obs,omitempty"`
	// TimeoutMS bounds the engine run (0 = server default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Dag runs the inversion in intra-rank task-DAG mode: each rank's
	// supernode updates are scheduled onto the shared pool of task-DAG
	// offload slots (sized by the -kernel-workers flag, reported in
	// pselinvd_build_info) and overlapped with the tree collectives. The
	// result is byte-identical to a sequential (non-DAG) run of the same
	// plan; the response reports the scheduler's mean occupancy.
	Dag bool `json:"dag,omitempty"`
}

// Response is the /v1/selinv response body.
type Response struct {
	ID        string  `json:"id"`
	N         int     `json:"n"`
	NNZ       int     `json:"nnz"`
	Snodes    int     `json:"snodes"`
	Cache     string  `json:"cache"` // hit|miss|coalesced
	Procs     int     `json:"procs"`
	Scheme    string  `json:"scheme"`
	Balancer  string  `json:"balancer"`
	Ordering  string  `json:"ordering"`
	Symmetric bool    `json:"symmetric"`
	LogAbsDet float64 `json:"logabsdet"`
	// ElapsedMS breaks the request down by phase (analyze is ~0 on hits).
	ElapsedMS map[string]float64 `json:"elapsed_ms"`
	MaxSentMB float64            `json:"max_sent_mb"`
	Diagonal  []float64          `json:"diagonal,omitempty"`
	// Complex marks a z_im != 0 run; the diagonal then splits into the
	// re/im pair below and logdet_re/logdet_im carry log det(A − zI).
	Complex    bool      `json:"complex,omitempty"`
	LogDetRe   float64   `json:"logdet_re,omitempty"`
	LogDetIm   float64   `json:"logdet_im,omitempty"`
	DiagonalRe []float64 `json:"diagonal_re,omitempty"`
	DiagonalIm []float64 `json:"diagonal_im,omitempty"`
	TracePath  string    `json:"trace,omitempty"`
	ObsPath    string    `json:"obs,omitempty"`
	// VolImbalance is max/mean per-rank sent bytes (observed runs only).
	VolImbalance float64 `json:"vol_imbalance,omitempty"`
	// DagTasks and DagOccupancy summarize the task-DAG scheduler of a
	// "dag": true run: total tasks across ranks and the mean per-rank
	// busy/wall occupancy.
	DagTasks     int     `json:"dag_tasks,omitempty"`
	DagOccupancy float64 `json:"dag_occupancy,omitempty"`
}

type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// maxBodyBytes bounds a request body: room for an inline MatrixMarket
// upload at the default MaxN (about a million entries), and the most one
// request can make a body buffer. Past it the answer is 413.
const maxBodyBytes = 32 << 20

// maxPooledBody bounds a body buffer Server.bodyBufs keeps; one grown past it
// by a rare large upload goes to the garbage collector instead.
const maxPooledBody = 4 << 20

// knobs are the run parameters /v1/selinv and /v1/selinv/batch share; each
// request type hands them over field for field.
type knobs struct {
	Matrix       MatrixSpec
	Shift        float64
	Procs        int
	Scheme       string
	CoresPerNode int
	Balancer     string
	Ordering     string
	Seed         uint64
	TimeoutMS    int
}

// request is what the front door needs from either endpoint's body.
type request interface {
	knobs() knobs
	// validate runs the endpoint's own checks (pole placement).
	validate(s *Server) *httpError
}

func (r *Request) knobs() knobs {
	return knobs{r.Matrix, r.Shift, r.Procs, r.Scheme, r.CoresPerNode, r.Balancer, r.Ordering, r.Seed, r.TimeoutMS}
}

func (r *Request) validate(*Server) *httpError {
	if r.ZRe != 0 && r.ZIm == 0 {
		return badRequest("complex pole must lie off the real axis (z_im != 0); use \"shift\" for real diagonal shifts")
	}
	return nil
}

// admission is a request on its way through the front door: front fills
// the resolved knobs — parsed, defaulted and checked against the server's
// limits, nothing built yet — and admitted, holding an engine slot, fills
// the matrix and its cached analysis.
type admission struct {
	generate     func() (*pselinv.Matrix, *httpError)
	shift        float64
	coresPerNode int
	scheme       pselinv.Scheme
	balancer     pselinv.Balancer
	ordMethod    pselinv.OrderingMethod
	ordName      string
	procs        int
	seed         uint64
	timeout      time.Duration

	t0         time.Time
	m          *pselinv.Matrix
	sym        *pselinv.Symbolic
	outcome    CacheOutcome
	analyzeDur time.Duration
}

// generator is a matrix kind a MatrixSpec can name and the parameters it
// requires: dims multiply to the matrix dimension, extra is the kind's
// other must-be-positive parameter (1 when it has none).
type generator struct {
	kind, params string
	dims         func(MatrixSpec) (dims []int, extra int)
	gen          func(MatrixSpec) *pselinv.Matrix
}

// generators are the kinds besides "matrixmarket", each parsed, and listed
// in the unknown-kind error, from here only.
var generators = []generator{
	{"grid2d", "nx, ny", func(s MatrixSpec) ([]int, int) { return []int{s.NX, s.NY}, 1 },
		func(s MatrixSpec) *pselinv.Matrix { return pselinv.Grid2D(s.NX, s.NY, s.Seed) }},
	{"grid3d", "nx, ny, nz", func(s MatrixSpec) ([]int, int) { return []int{s.NX, s.NY, s.NZ}, 1 },
		func(s MatrixSpec) *pselinv.Matrix { return pselinv.Grid3D(s.NX, s.NY, s.NZ, s.Seed) }},
	{"dg2d", "nx, ny, dofs", func(s MatrixSpec) ([]int, int) { return []int{s.NX, s.NY, s.Dofs}, 1 },
		func(s MatrixSpec) *pselinv.Matrix { return pselinv.DG2D(s.NX, s.NY, s.Dofs, s.Seed) }},
	{"fe3d", "nx, ny, nz, dofs", func(s MatrixSpec) ([]int, int) { return []int{s.NX, s.NY, s.NZ, s.Dofs}, 1 },
		func(s MatrixSpec) *pselinv.Matrix { return pselinv.FE3D(s.NX, s.NY, s.NZ, s.Dofs, s.Seed) }},
	{"banded", "n, bw", func(s MatrixSpec) ([]int, int) { return []int{s.N}, s.BW },
		func(s MatrixSpec) *pselinv.Matrix { return pselinv.Banded(s.N, s.BW, s.Seed) }},
	{"randomsym", "n, deg", func(s MatrixSpec) ([]int, int) { return []int{s.N}, s.Deg },
		func(s MatrixSpec) *pselinv.Matrix { return pselinv.RandomSym(s.N, s.Deg, s.Seed) }},
	{"randomasym", "n, deg", func(s MatrixSpec) ([]int, int) { return []int{s.N}, s.Deg },
		func(s MatrixSpec) *pselinv.Matrix { return pselinv.RandomAsym(s.N, s.Deg, s.Seed) }},
}

// matrixSource validates a spec without building anything — a generator's
// dimension follows from its parameters, so an oversized one is refused
// here — and returns the function that realizes it.
func (s *Server) matrixSource(spec MatrixSpec) (func() (*pselinv.Matrix, *httpError), *httpError) {
	kind := strings.ToLower(spec.Kind)
	if kind == "matrixmarket" {
		// Bounded by maxBodyBytes on the way in and by MaxN off the size
		// line, before the body is parsed or a slot taken (and once parsed).
		if spec.Data == "" {
			return nil, badRequest("matrixmarket requires data")
		}
		if n := sizeLineRows(spec.Data); n > s.cfg.MaxN {
			return nil, badRequest("matrixmarket: matrix dimension %d exceeds server limit %d", n, s.cfg.MaxN)
		}
		return func() (*pselinv.Matrix, *httpError) {
			m, err := pselinv.FromMatrixMarket(strings.NewReader(spec.Data), "request-matrix")
			if err != nil {
				return nil, badRequest("matrixmarket: %v", err)
			}
			return m, nil
		}, nil
	}
	i := slices.IndexFunc(generators, func(g generator) bool { return g.kind == kind })
	if i < 0 {
		kinds := make([]string, len(generators))
		for i, g := range generators {
			kinds[i] = g.kind
		}
		return nil, badRequest("unknown matrix kind %q (valid: %s|matrixmarket)", spec.Kind, strings.Join(kinds, "|"))
	}
	g := generators[i]
	dims, extra := g.dims(spec)
	n := 1
	for _, d := range append(dims, extra) {
		if d < 1 {
			return nil, badRequest("%s requires %s >= 1", kind, g.params)
		}
	}
	for _, d := range dims {
		// n <= MaxN and d >= 1, so neither the quotient nor the product
		// below can overflow, whatever the request asked for.
		if d > s.cfg.MaxN/n {
			return nil, badRequest("%s: matrix dimension exceeds server limit %d", kind, s.cfg.MaxN)
		}
		n *= d
	}
	return func() (*pselinv.Matrix, *httpError) { return g.gen(spec), nil }, nil
}

// sizeLineRows reads the row count off a MatrixMarket size line the way the
// parser does; 0 when there is none or it is malformed, which the parser reports.
func sizeLineRows(data string) (n int) {
	for rest := data; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		if line = strings.TrimSpace(line); line != "" && line[0] != '%' {
			fmt.Sscan(line, &n)
			return n
		}
	}
	return 0
}

// parseOrdering maps the request field to an ordering method plus its
// canonical name (part of the cache key). The zero value defaults to
// nested dissection, not the library's natural ordering: a service exists
// to serve repeated same-pattern requests, and the fill-reducing ordering
// is both the dominant cold-path cost and the thing worth paying once.
func parseOrdering(s string) (pselinv.OrderingMethod, string, *httpError) {
	if s == "" {
		return pselinv.OrderNestedDissection, "nd", nil
	}
	m, err := ordering.Parse(s)
	if err != nil {
		return 0, "", badRequest("%v", err)
	}
	return m, m.String(), nil
}

// fail answers a request that ends in an HTTP error and counts it.
func (s *Server) fail(w http.ResponseWriter, herr *httpError) {
	switch herr.status {
	case http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", "1")
		s.metrics.countRequest("rejected")
	case http.StatusBadRequest, http.StatusMethodNotAllowed, http.StatusRequestEntityTooLarge:
		s.metrics.countRequest("bad_request")
	default:
		s.metrics.countRequest("error")
	}
	http.Error(w, herr.msg, herr.status)
}

// front is the one door both POST endpoints enter through: method, bounded
// body, JSON, the endpoint's own validation, then every shared knob
// resolved — each default and limit applied here and nowhere else. Nothing
// heavy happens yet.
func (s *Server) front(w http.ResponseWriter, r *http.Request, req request) (*admission, *httpError) {
	if r.Method != http.MethodPost {
		return nil, &httpError{status: http.StatusMethodNotAllowed, msg: "POST only"}
	}
	// The buffer grows with the bytes received, never from the client's
	// Content-Length; Unmarshal copies every string out of it.
	var buf *bytes.Buffer
	select {
	case buf = <-s.bodyBufs:
	default:
		buf = new(bytes.Buffer)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), req)
	}
	buf.Reset()
	if buf.Cap() <= maxPooledBody {
		select {
		case s.bodyBufs <- buf:
		default:
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return nil, &httpError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes)}
	} else if err != nil {
		return nil, badRequest("bad JSON: %v", err)
	}
	if herr := req.validate(s); herr != nil {
		return nil, herr
	}
	k := req.knobs()
	adm := &admission{
		shift:        k.Shift,
		coresPerNode: k.CoresPerNode,
		scheme:       pselinv.ShiftedBinaryTree,
		balancer:     pselinv.CyclicBalancer,
		procs:        16,
		seed:         1,
		timeout:      s.cfg.DefaultTimeout,
	}
	if k.Scheme != "" {
		if adm.scheme, err = pselinv.ParseScheme(k.Scheme); err != nil {
			return nil, badRequest("%v", err)
		}
	}
	// The slug is what the analysis consumes; validating it here keeps bad
	// requests out of the symbolic cache.
	if k.Balancer != "" {
		if adm.balancer, err = pselinv.ParseBalancer(k.Balancer); err != nil {
			return nil, badRequest("%v", err)
		}
	}
	var herr *httpError
	if adm.ordMethod, adm.ordName, herr = parseOrdering(k.Ordering); herr != nil {
		return nil, herr
	}
	if k.Procs != 0 {
		adm.procs = k.Procs
	}
	if adm.procs < 1 || adm.procs > s.cfg.MaxProcs {
		return nil, badRequest("procs %d outside [1, %d]", adm.procs, s.cfg.MaxProcs)
	}
	if k.CoresPerNode < 0 {
		return nil, badRequest("cores_per_node %d is negative (0 keeps the default of 24)", k.CoresPerNode)
	}
	if k.TimeoutMS > 0 {
		// Compared in milliseconds: the product could overflow a Duration.
		adm.timeout = s.cfg.MaxTimeout
		if ms := time.Duration(k.TimeoutMS); ms < s.cfg.MaxTimeout/time.Millisecond {
			adm.timeout = ms * time.Millisecond
		}
	}
	if k.Seed != 0 {
		adm.seed = k.Seed
	}
	if adm.generate, herr = s.matrixSource(k.Matrix); herr != nil {
		return nil, herr
	}
	return adm, nil
}

// admitted runs body holding an engine slot — admission control guards
// the whole heavy section: matrix realization, analysis, factorization and
// the engine runs — with adm's matrix built and its analysis fetched or
// computed.
func (s *Server) admitted(ctx context.Context, adm *admission, body func() *httpError) *httpError {
	if err := s.acquire(ctx); err != nil {
		if errors.Is(err, ErrSaturated) {
			return &httpError{status: http.StatusServiceUnavailable, msg: "server saturated; retry later"}
		}
		return &httpError{status: http.StatusRequestTimeout, msg: "client went away while queued"}
	}
	defer s.release()
	if s.testSlowdown != nil {
		s.testSlowdown()
	}

	adm.t0 = time.Now()
	m, herr := adm.generate()
	if herr != nil {
		return herr
	}
	if m.N() > s.cfg.MaxN {
		return badRequest("matrix dimension %d exceeds server limit %d", m.N(), s.cfg.MaxN)
	}
	var err error
	if adm.shift != 0 {
		if m, err = m.Shifted(adm.shift); err != nil {
			return badRequest("shift: %v", err)
		}
	}
	adm.m = m

	// Cache key: pattern fingerprint + the analysis options that change
	// its symbolic outcome (every request amalgamates supernodes with the
	// library defaults, so those are not in it). CoresPerNode is baked into the Symbolic's
	// engine templates, so it is part of the key (a non-default packing
	// must not reuse default plans), and so is the balancer — a different
	// supernode→process map is a different plan. Both endpoints share the
	// key: a batch warms the cache for single-pole requests of the same
	// family and vice versa.
	key := fmt.Sprintf("%s/%s/c%d/b%s", m.Fingerprint(), adm.ordName, adm.coresPerNode, adm.balancer.Slug())
	tCache := time.Now()
	adm.sym, adm.outcome, err = s.cache.getOrBuild(key, func() (*pselinv.Symbolic, error) {
		return pselinv.AnalyzePattern(m, pselinv.Options{
			Ordering:     adm.ordMethod,
			CoresPerNode: adm.coresPerNode,
			Balancer:     adm.balancer.Slug(),
		})
	})
	if err != nil {
		return badRequest("analysis: %v", err)
	}
	adm.analyzeDur = time.Since(tCache)
	return body()
}

func (s *Server) handleSelInv(w http.ResponseWriter, r *http.Request) {
	var req Request
	adm, herr := s.front(w, r, &req)
	var resp *Response
	if herr == nil {
		herr = s.admitted(r.Context(), adm, func() (herr *httpError) {
			resp, herr = s.serve(&req, adm)
			return herr
		})
	}
	if herr != nil {
		s.fail(w, herr)
		return
	}
	s.metrics.countRequest("ok")
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		// Connection-level failure; nothing recoverable.
		return
	}
}

// serve runs one admitted inversion request end to end.
func (s *Server) serve(req *Request, adm *admission) (*Response, *httpError) {
	m, sym := adm.m, adm.sym

	tFac := time.Now()
	var sys *pselinv.System
	var ferr error
	if req.ZIm != 0 {
		sys, ferr = sym.FactorizeShifted(m, complex(req.ZRe, req.ZIm))
	} else {
		sys, ferr = sym.Factorize(m)
	}
	if ferr != nil {
		return nil, &httpError{status: http.StatusUnprocessableEntity, msg: "factorization: " + ferr.Error()}
	}
	sys.SetTimeout(adm.timeout)
	sys.SetDAG(req.Dag)
	facDur := time.Since(tFac)

	tInv := time.Now()
	var res *pselinv.ParallelResult
	var tr *pselinv.TraceReport
	var orep *pselinv.ObsReport
	var err error
	if req.Obs || req.Trace {
		// One observed run serves both: an "obs" request keeps the report
		// and the trace (the collective spans are half the point of the
		// instrumentation), a "trace" request the trace alone.
		res, tr, orep, err = sys.ParallelSelInvObserved(adm.procs, adm.scheme, adm.seed)
		if !req.Obs {
			orep = nil
		}
	} else {
		res, err = sys.ParallelSelInv(adm.procs, adm.scheme, adm.seed)
	}
	if err != nil {
		return nil, &httpError{status: http.StatusUnprocessableEntity, msg: "inversion: " + err.Error()}
	}
	invDur := time.Since(tInv)
	analyzeDur, outcome := adm.analyzeDur, adm.outcome
	total := time.Since(adm.t0)

	id := fmt.Sprintf("r%06d", s.reqID.Add(1))
	resp := &Response{
		ID:        id,
		N:         m.N(),
		NNZ:       m.NNZ(),
		Snodes:    sym.NumSupernodes(),
		Cache:     string(outcome),
		Procs:     res.Procs(),
		Scheme:    adm.scheme.Slug(),
		Balancer:  adm.balancer.Slug(),
		Ordering:  adm.ordName,
		Symmetric: sys.Symmetric(),
		LogAbsDet: sys.LogAbsDet(),
		MaxSentMB: res.MaxSentMB(),
		ElapsedMS: map[string]float64{
			"analyze":   analyzeDur.Seconds() * 1e3,
			"factorize": facDur.Seconds() * 1e3,
			"invert":    invDur.Seconds() * 1e3,
			"total":     total.Seconds() * 1e3,
		},
	}
	if req.ZIm != 0 {
		resp.Complex = true
		if ld, lerr := sys.LogDet(); lerr == nil {
			resp.LogDetRe, resp.LogDetIm = real(ld), imag(ld)
		}
	}
	if req.Diagonal {
		if resp.Complex {
			resp.DiagonalRe, resp.DiagonalIm = splitComplex(res.DiagonalComplex())
		} else {
			resp.Diagonal = res.Diagonal()
		}
	}
	if ds := res.DagStats(); len(ds) > 0 {
		occ := 0.0
		for _, st := range ds {
			resp.DagTasks += st.Tasks
			occ += st.Occupancy
		}
		resp.DagOccupancy = occ / float64(len(ds))
	}
	res.Release()
	sys.Release() // the response holds everything it read of the factor
	if tr != nil {
		var rec record
		var b bytes.Buffer
		if err := tr.WriteChromeTrace(&b); err == nil {
			rec.trace = b.Bytes()
			resp.TracePath = "/debug/trace/" + id
		}
		if orep != nil {
			if js, jerr := orep.JSON(); jerr == nil {
				rec.report = js
				resp.ObsPath = "/debug/obs/" + id
			}
			resp.VolImbalance = orep.VolumeImbalance()
			s.metrics.recordObs(orep.ClassSentBytes(), orep.VolumeImbalance(),
				orep.MaxQueueDepth(), orep.TotalRecvWait())
		}
		s.traces.put(id, rec)
	}

	s.metrics.observe("analyze", analyzeDur)
	s.metrics.observe("factorize", facDur)
	s.metrics.observe("invert", invDur)
	s.metrics.observe("total", total)
	switch outcome {
	case CacheHit, CacheCoalesced:
		s.metrics.observe("total_warm", total)
	case CacheMiss:
		s.metrics.observe("total_cold", total)
	}
	return resp, nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, s.cache.stats(), gauges{
		PoolInUse:      len(s.slots),
		PoolCapacity:   s.cfg.Workers,
		QueueDepth:     int(s.waiting.Load()),
		QueueCapacity:  s.cfg.MaxQueue,
		TracesRetained: s.traces.len(),
		KernelWorkers:  dense.Workers(),
	})
}

func (s *Server) handleObs(w http.ResponseWriter, r *http.Request) {
	s.serveRecord(w, r, "/debug/obs/", "obs report", "obs", func(rec record) []byte { return rec.report })
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.serveRecord(w, r, "/debug/trace/", "trace", "trace", func(rec record) []byte { return rec.trace })
}

// serveRecord serves one part of a retained record under prefix: the ids
// that have the part at the bare prefix, the part itself at prefix+id.
func (s *Server) serveRecord(w http.ResponseWriter, r *http.Request, prefix, what, flag string, part func(record) []byte) {
	id := strings.TrimPrefix(r.URL.Path, prefix)
	if id == "" {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(s.traces.ids(part)); err != nil {
			return
		}
		return
	}
	rec, _ := s.traces.get(id)
	data := part(rec)
	if data == nil {
		http.Error(w, fmt.Sprintf("no %s retained for %s (request it with %q: true; the ring keeps the most recent %ss)", what, id, flag, what), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(data); err != nil {
		return
	}
}

// record is what the server retains of one observed request: the Chrome
// trace, and the obs report when the request asked for it.
type record struct {
	trace, report []byte
}

// traceRing retains the records of the most recent observed requests.
type traceRing struct {
	mu    sync.Mutex
	cap   int
	order []string
	data  map[string]record
}

func newTraceRing(capacity int) *traceRing {
	return &traceRing{cap: capacity, data: map[string]record{}}
}

func (t *traceRing) put(id string, rec record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, exists := t.data[id]; !exists {
		t.order = append(t.order, id)
		for len(t.order) > t.cap {
			delete(t.data, t.order[0])
			t.order = t.order[1:]
		}
	}
	t.data[id] = rec
}

func (t *traceRing) get(id string) (record, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.data[id]
	return rec, ok
}

// ids lists, oldest first, the retained ids whose record has the part.
func (t *traceRing) ids(part func(record) []byte) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for _, id := range t.order {
		if part(t.data[id]) != nil {
			out = append(out, id)
		}
	}
	return out
}

func (t *traceRing) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.data)
}
