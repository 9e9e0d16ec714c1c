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
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pselinv"
	"pselinv/internal/dense"
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
	// TraceRing bounds retained per-request Chrome traces. Default 16.
	TraceRing int
	// ObsRing bounds retained per-request observability reports. Default 16.
	ObsRing int
	// MaxN and MaxProcs cap request size. Defaults 20000 and 256.
	MaxN     int
	MaxProcs int
	// DefaultTimeout/MaxTimeout bound the per-request engine timeout.
	// Defaults 60s / 5m.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Relax/MaxWidth are the analysis options used for every request (kept
	// server-wide so same-pattern requests share cache entries). Zero
	// selects the pipeline defaults.
	Relax    int
	MaxWidth int
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
	if c.ObsRing <= 0 {
		c.ObsRing = 16
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
	reports *traceRing // observability JSON reports, same retention policy

	// testSlowdown, when non-nil, runs while a slot is held — test hook to
	// make saturation deterministic.
	testSlowdown func()
}

// New builds a server from the config (zero value fine).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:     cfg,
		cache:   newSymCache(cfg.CacheSize),
		metrics: newMetrics(),
		slots:   make(chan struct{}, cfg.Workers),
		traces:  newTraceRing(cfg.TraceRing),
		reports: newTraceRing(cfg.ObsRing),
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
	// log det(A − zI). Complex runs always use the general communication
	// path. Their reductions fold in an order fixed by the plan, so a run
	// is bit-reproducible for one (procs, scheme, balancer, seed); on one
	// rank it is bit-identical to the serial reference, on several it
	// agrees with it within 1e-9. A pole on the real axis (z_re set, z_im zero) is
	// rejected: the shifted system could be singular there — use "shift"
	// for real diagonal shifts.
	ZRe float64 `json:"z_re,omitempty"`
	ZIm float64 `json:"z_im,omitempty"`
	// Procs is the simulated rank count (default 16).
	Procs int `json:"procs,omitempty"`
	// Scheme selects the collective tree (default shifted); any slug from
	// pselinv.SchemeSlugs is accepted: flat|binary|shifted|randperm|
	// hybrid|toposhifted|bine.
	Scheme string `json:"scheme,omitempty"`
	// CoresPerNode sets the rank→node packing consumed by the
	// topology-aware schemes (toposhifted, bine); 0 keeps the Edison-style
	// default of 24 ranks per node. Other schemes ignore it.
	CoresPerNode int `json:"cores_per_node,omitempty"`
	// Balancer selects the supernode→process mapping strategy (default
	// cyclic); any slug from pselinv.BalancerSlugs is accepted:
	// cyclic|nnz|work|subtree. The mapping changes the communication plan
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
	// ObsRingCap overrides the per-rank event-ring capacity of an observed
	// run (0 = the obs package default). Negative values are rejected;
	// oversized ones are clamped server-side so one request cannot pin
	// unbounded memory per rank. Only meaningful with "obs": true.
	ObsRingCap int `json:"obs_ring_cap,omitempty"`
	// TimeoutMS bounds the engine run (0 = server default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Dag runs the inversion in intra-rank task-DAG mode: each rank's
	// supernode updates are scheduled onto the shared dense kernel worker
	// pool (sized by the -kernel-workers flag, reported in
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

// buildMatrix realizes a spec (plus shift) into a Matrix.
func (s *Server) buildMatrix(spec MatrixSpec, shift float64) (*pselinv.Matrix, error) {
	var m *pselinv.Matrix
	var err error
	switch strings.ToLower(spec.Kind) {
	case "grid2d":
		if spec.NX < 1 || spec.NY < 1 {
			return nil, badRequest("grid2d requires nx, ny >= 1")
		}
		m = pselinv.Grid2D(spec.NX, spec.NY, spec.Seed)
	case "grid3d":
		if spec.NX < 1 || spec.NY < 1 || spec.NZ < 1 {
			return nil, badRequest("grid3d requires nx, ny, nz >= 1")
		}
		m = pselinv.Grid3D(spec.NX, spec.NY, spec.NZ, spec.Seed)
	case "dg2d":
		if spec.NX < 1 || spec.NY < 1 || spec.Dofs < 1 {
			return nil, badRequest("dg2d requires nx, ny, dofs >= 1")
		}
		m = pselinv.DG2D(spec.NX, spec.NY, spec.Dofs, spec.Seed)
	case "fe3d":
		if spec.NX < 1 || spec.NY < 1 || spec.NZ < 1 || spec.Dofs < 1 {
			return nil, badRequest("fe3d requires nx, ny, nz, dofs >= 1")
		}
		m = pselinv.FE3D(spec.NX, spec.NY, spec.NZ, spec.Dofs, spec.Seed)
	case "banded":
		if spec.N < 1 || spec.BW < 1 {
			return nil, badRequest("banded requires n, bw >= 1")
		}
		m = pselinv.Banded(spec.N, spec.BW, spec.Seed)
	case "randomsym":
		if spec.N < 1 || spec.Deg < 1 {
			return nil, badRequest("randomsym requires n, deg >= 1")
		}
		m = pselinv.RandomSym(spec.N, spec.Deg, spec.Seed)
	case "randomasym":
		if spec.N < 1 || spec.Deg < 1 {
			return nil, badRequest("randomasym requires n, deg >= 1")
		}
		m = pselinv.RandomAsym(spec.N, spec.Deg, spec.Seed)
	case "matrixmarket":
		if spec.Data == "" {
			return nil, badRequest("matrixmarket requires data")
		}
		m, err = pselinv.FromMatrixMarket(strings.NewReader(spec.Data), "request-matrix")
		if err != nil {
			return nil, badRequest("matrixmarket: %v", err)
		}
	default:
		return nil, badRequest("unknown matrix kind %q", spec.Kind)
	}
	if m.N() > s.cfg.MaxN {
		return nil, badRequest("matrix dimension %d exceeds server limit %d", m.N(), s.cfg.MaxN)
	}
	if shift != 0 {
		if m, err = m.Shifted(shift); err != nil {
			return nil, badRequest("shift: %v", err)
		}
	}
	return m, nil
}

func parseScheme(s string) (pselinv.Scheme, *httpError) {
	if s == "" {
		return pselinv.ShiftedBinaryTree, nil
	}
	scheme, err := pselinv.ParseScheme(s)
	if err != nil {
		return 0, badRequest("%v", err)
	}
	return scheme, nil
}

// parseBalancer validates the request's balancer slug; the 400 lists the
// valid slugs (same contract as parseScheme). The slug itself is what the
// analysis consumes — validation here keeps bad requests out of the
// symbolic cache.
func parseBalancer(s string) (pselinv.Balancer, *httpError) {
	if s == "" {
		return pselinv.CyclicBalancer, nil
	}
	b, err := pselinv.ParseBalancer(s)
	if err != nil {
		return 0, badRequest("%v", err)
	}
	return b, nil
}

// parseOrdering maps the request field to an ordering method plus its
// canonical name (part of the cache key). The zero value defaults to
// nested dissection, not the library's natural ordering: a service exists
// to serve repeated same-pattern requests, and the fill-reducing ordering
// is both the dominant cold-path cost and the thing worth paying once.
func parseOrdering(s string) (pselinv.OrderingMethod, string, *httpError) {
	switch strings.ToLower(s) {
	case "", "nd":
		return pselinv.OrderNestedDissection, "nd", nil
	case "natural":
		return pselinv.OrderNatural, "natural", nil
	case "rcm":
		return pselinv.OrderRCM, "rcm", nil
	case "mmd":
		return pselinv.OrderMinimumDegree, "mmd", nil
	}
	return 0, "", badRequest("unknown ordering %q", s)
}

func (s *Server) handleSelInv(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		s.metrics.countRequest("bad_request")
		return
	}
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		s.metrics.countRequest("bad_request")
		return
	}
	resp, herr := s.serve(r.Context(), &req)
	if herr != nil {
		if herr.status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
			s.metrics.countRequest("rejected")
		} else if herr.status == http.StatusBadRequest {
			s.metrics.countRequest("bad_request")
		} else {
			s.metrics.countRequest("error")
		}
		http.Error(w, herr.msg, herr.status)
		return
	}
	s.metrics.countRequest("ok")
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		// Connection-level failure; nothing recoverable.
		return
	}
}

// serve runs one inversion request end to end.
func (s *Server) serve(ctx context.Context, req *Request) (*Response, *httpError) {
	scheme, herr := parseScheme(req.Scheme)
	if herr != nil {
		return nil, herr
	}
	balancer, herr := parseBalancer(req.Balancer)
	if herr != nil {
		return nil, herr
	}
	ordMethod, ordName, herr := parseOrdering(req.Ordering)
	if herr != nil {
		return nil, herr
	}
	procs := req.Procs
	if procs == 0 {
		procs = 16
	}
	if procs < 1 || procs > s.cfg.MaxProcs {
		return nil, badRequest("procs %d outside [1, %d]", procs, s.cfg.MaxProcs)
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	if req.ObsRingCap < 0 {
		return nil, badRequest("obs_ring_cap %d is negative", req.ObsRingCap)
	}
	if req.ObsRingCap > 0 && !req.Obs {
		return nil, badRequest("obs_ring_cap requires \"obs\": true")
	}
	if req.ZRe != 0 && req.ZIm == 0 {
		return nil, badRequest("complex pole must lie off the real axis (z_im != 0); use \"shift\" for real diagonal shifts")
	}

	// Admission control guards the whole heavy section: matrix
	// realization, analysis, factorization and the engine run.
	if err := s.acquire(ctx); err != nil {
		if errors.Is(err, ErrSaturated) {
			return nil, &httpError{status: http.StatusServiceUnavailable, msg: "server saturated; retry later"}
		}
		return nil, &httpError{status: http.StatusRequestTimeout, msg: "client went away while queued"}
	}
	defer s.release()
	if s.testSlowdown != nil {
		s.testSlowdown()
	}

	t0 := time.Now()
	m, merr := s.buildMatrix(req.Matrix, req.Shift)
	if merr != nil {
		var he *httpError
		if errors.As(merr, &he) {
			return nil, he
		}
		return nil, badRequest("%v", merr)
	}

	// Cache key: pattern fingerprint + the analysis options that change
	// its symbolic outcome.
	// CoresPerNode is baked into the Symbolic's engine templates, so it is
	// part of the key (a non-default packing must not reuse default plans),
	// and so is the balancer — a different supernode→process map is a
	// different plan.
	key := fmt.Sprintf("%s/%s/r%d/w%d/c%d/b%s", m.Fingerprint(), ordName, s.cfg.Relax, s.cfg.MaxWidth,
		req.CoresPerNode, balancer.Slug())
	tCache := time.Now()
	sym, outcome, berr := s.cache.getOrBuild(key, func() (*pselinv.Symbolic, error) {
		return pselinv.AnalyzePattern(m, pselinv.Options{
			Ordering:     ordMethod,
			Relax:        s.cfg.Relax,
			MaxWidth:     s.cfg.MaxWidth,
			CoresPerNode: req.CoresPerNode,
			Balancer:     balancer.Slug(),
		})
	})
	if berr != nil {
		return nil, badRequest("analysis: %v", berr)
	}
	analyzeDur := time.Since(tCache)

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
	sys.SetTimeout(timeout)
	sys.SetDAG(req.Dag)
	facDur := time.Since(tFac)

	tInv := time.Now()
	var res *pselinv.ParallelResult
	var tr *pselinv.TraceReport
	var orep *pselinv.ObsReport
	var err error
	if req.Obs {
		// Observed runs always carry the merged trace: the collective
		// spans are half the point of the instrumentation.
		res, tr, orep, err = sys.ParallelSelInvObservedCap(procs, scheme, seed, req.ObsRingCap)
	} else if req.Trace {
		res, tr, err = sys.ParallelSelInvTraced(procs, scheme, seed)
	} else {
		res, err = sys.ParallelSelInv(procs, scheme, seed)
	}
	if err != nil {
		return nil, &httpError{status: http.StatusUnprocessableEntity, msg: "inversion: " + err.Error()}
	}
	invDur := time.Since(tInv)
	total := time.Since(t0)

	id := fmt.Sprintf("r%06d", s.reqID.Add(1))
	resp := &Response{
		ID:        id,
		N:         m.N(),
		NNZ:       m.NNZ(),
		Snodes:    sym.NumSupernodes(),
		Cache:     string(outcome),
		Procs:     res.Procs(),
		Scheme:    scheme.Slug(),
		Balancer:  balancer.Slug(),
		Ordering:  ordName,
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
			occ += st.Occupancy()
		}
		resp.DagOccupancy = occ / float64(len(ds))
	}
	res.Release()
	if tr != nil {
		var b strings.Builder
		if err := tr.WriteChromeTrace(&b); err == nil {
			s.traces.put(id, []byte(b.String()))
			resp.TracePath = "/debug/trace/" + id
		}
	}
	if orep != nil {
		if b, jerr := orep.JSON(); jerr == nil {
			s.reports.put(id, b)
			resp.ObsPath = "/debug/obs/" + id
		}
		resp.VolImbalance = orep.VolumeImbalance()
		s.metrics.recordObs(orep.ClassSentBytes(), orep.VolumeImbalance(),
			orep.MaxQueueDepth(), orep.TotalRecvWait())
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
	id := strings.TrimPrefix(r.URL.Path, "/debug/obs/")
	if id == "" {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(s.reports.ids()); err != nil {
			return
		}
		return
	}
	data, ok := s.reports.get(id)
	if !ok {
		http.Error(w, "no obs report retained for "+id+" (request it with \"obs\": true; the ring keeps the most recent reports)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(data); err != nil {
		return
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	if id == "" {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(s.traces.ids()); err != nil {
			return
		}
		return
	}
	data, ok := s.traces.get(id)
	if !ok {
		http.Error(w, "no trace retained for "+id+" (request it with \"trace\": true; the ring keeps the most recent traces)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(data); err != nil {
		return
	}
}

// traceRing retains the Chrome traces of the most recent traced requests.
type traceRing struct {
	mu    sync.Mutex
	cap   int
	order []string
	data  map[string][]byte
}

func newTraceRing(capacity int) *traceRing {
	return &traceRing{cap: capacity, data: map[string][]byte{}}
}

func (t *traceRing) put(id string, b []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, exists := t.data[id]; !exists {
		t.order = append(t.order, id)
		for len(t.order) > t.cap {
			delete(t.data, t.order[0])
			t.order = t.order[1:]
		}
	}
	t.data[id] = b
}

func (t *traceRing) get(id string) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.data[id]
	return b, ok
}

func (t *traceRing) ids() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.order...)
}

func (t *traceRing) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.data)
}
