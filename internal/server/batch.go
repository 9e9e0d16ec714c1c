package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"pselinv"
	"pselinv/internal/pexsi"
)

// /v1/selinv/batch is the multi-pole PEXSI endpoint: one request carries a
// matrix and a pole list, the server performs the symbolic analysis once
// (through the same plan cache as /v1/selinv), factorizes A − zₗI for the
// poles pipelined with the inversions, and streams one NDJSON record per
// pole as it completes — so the client sees pole results arrive instead of
// waiting for the slowest one. The whole batch holds a SINGLE engine slot:
// admission is batch-aware, one saturated batch cannot starve the pool the
// way its poles issued as independent requests would. Every per-pole result
// is computed by exactly the code path a single-pole /v1/selinv complex
// request takes, so the records are bit-identical to the equivalent
// single-pole responses.

// PoleSpec is one complex pole zₗ = z_re + i·z_im with an optional
// quadrature weight wₗ (used by the density accumulation).
type PoleSpec struct {
	ZRe float64 `json:"z_re"`
	ZIm float64 `json:"z_im"`
	WRe float64 `json:"w_re,omitempty"`
	WIm float64 `json:"w_im,omitempty"`
}

// BatchRequest is the /v1/selinv/batch request body. The pole list comes
// either explicitly (poles) or generated from the Fermi–Dirac parameters
// (num_poles + beta + mu → the first num_poles Matsubara poles with their
// expansion weights); exactly one of the two forms must be present.
type BatchRequest struct {
	Matrix MatrixSpec `json:"matrix"`
	// Shift applies A + σI to the values before any pole (pattern
	// unchanged, cache shared).
	Shift    float64    `json:"shift,omitempty"`
	Poles    []PoleSpec `json:"poles,omitempty"`
	Beta     float64    `json:"beta,omitempty"`
	Mu       float64    `json:"mu,omitempty"`
	NumPoles int        `json:"num_poles,omitempty"`
	// Procs/Scheme/CoresPerNode/Balancer/Ordering/Seed/Dag mean exactly
	// what they mean on /v1/selinv and apply to every pole's run.
	Procs        int    `json:"procs,omitempty"`
	Scheme       string `json:"scheme,omitempty"`
	CoresPerNode int    `json:"cores_per_node,omitempty"`
	Balancer     string `json:"balancer,omitempty"`
	Ordering     string `json:"ordering,omitempty"`
	Seed         uint64 `json:"seed,omitempty"`
	Dag          bool   `json:"dag,omitempty"`
	// Diagonal includes diag((A−zₗI)⁻¹) in every pole record.
	Diagonal bool `json:"diagonal,omitempty"`
	// Density accumulates 0.5 + Σₗ Re(wₗ·diag((A−zₗI)⁻¹)) over the poles in
	// order (the PEXSI electron density for Matsubara weights) and returns
	// it in the trailer record.
	Density bool `json:"density,omitempty"`
	// TimeoutMS bounds EACH pole's engine run (0 = server default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// BatchHeader is the first NDJSON record of a batch response, emitted once
// the analysis is done and before any pole runs.
type BatchHeader struct {
	Type     string `json:"type"` // "header"
	ID       string `json:"id"`
	N        int    `json:"n"`
	NNZ      int    `json:"nnz"`
	Snodes   int    `json:"snodes"`
	Cache    string `json:"cache"`
	Procs    int    `json:"procs"`
	Scheme   string `json:"scheme"`
	Balancer string `json:"balancer"`
	Ordering string `json:"ordering"`
	Poles    int    `json:"poles"`
}

// BatchPoleResult is one pole's streamed record. The numbers are exactly
// what a single-pole /v1/selinv request with the same z and run parameters
// returns (same factorization, same engine template, bit for bit).
type BatchPoleResult struct {
	Type       string             `json:"type"` // "pole"
	Index      int                `json:"index"`
	ZRe        float64            `json:"z_re"`
	ZIm        float64            `json:"z_im"`
	LogDetRe   float64            `json:"logdet_re"`
	LogDetIm   float64            `json:"logdet_im"`
	ElapsedMS  map[string]float64 `json:"elapsed_ms"`
	DiagonalRe []float64          `json:"diagonal_re,omitempty"`
	DiagonalIm []float64          `json:"diagonal_im,omitempty"`
}

// BatchTrailer terminates a successful batch stream.
type BatchTrailer struct {
	Type      string    `json:"type"` // "done"
	Poles     int       `json:"poles"`
	Density   []float64 `json:"density,omitempty"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

// BatchStreamError is the terminal record of a batch that failed after
// streaming began (pre-stream failures are plain HTTP errors).
type BatchStreamError struct {
	Type  string `json:"type"` // "error"
	Index int    `json:"index"`
	Error string `json:"error"`
}

// splitComplex unpacks a complex vector into re/im slices for JSON.
func splitComplex(d []complex128) (re, im []float64) {
	re = make([]float64, len(d))
	im = make([]float64, len(d))
	for i, v := range d {
		re[i], im[i] = real(v), imag(v)
	}
	return re, im
}

func (r *BatchRequest) knobs() knobs {
	return knobs{r.Matrix, r.Shift, r.Procs, r.Scheme, r.CoresPerNode, r.Balancer, r.Ordering, r.Seed, r.TimeoutMS}
}

// validate checks the request's pole specification and leaves the
// effective pole list in r.Poles (the num_poles form is expanded there).
func (r *BatchRequest) validate(s *Server) *httpError {
	if len(r.Poles) > 0 && r.NumPoles > 0 {
		return badRequest("specify either poles or num_poles (with beta, mu), not both")
	}
	if n := max(len(r.Poles), r.NumPoles); n > s.cfg.MaxBatchPoles {
		return badRequest("batch of %d poles exceeds server limit %d", n, s.cfg.MaxBatchPoles)
	}
	if len(r.Poles) == 0 {
		if r.NumPoles <= 0 {
			return badRequest("batch needs poles or num_poles >= 1")
		}
		gen, err := pexsi.MatsubaraPoles(r.NumPoles, r.Beta, r.Mu)
		if err != nil {
			return badRequest("%v", err)
		}
		r.Poles = make([]PoleSpec, len(gen))
		for i, p := range gen {
			r.Poles[i] = PoleSpec{
				ZRe: real(p.Z), ZIm: imag(p.Z),
				WRe: real(p.Weight), WIm: imag(p.Weight),
			}
		}
	}
	for i, p := range r.Poles {
		if p.ZIm == 0 {
			return badRequest("pole %d lies on the real axis (z_im == 0); the shifted system could be singular there", i)
		}
	}
	return nil
}

func (s *Server) handleSelInvBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	adm, herr := s.front(w, r, &req)
	var status string
	if herr == nil {
		// One slot for the whole batch: the K poles run through a shared
		// analysis sequentially (factorization pipelined), so they occupy
		// one engine's worth of the machine — admitting them as one unit
		// keeps a batch from monopolizing the pool.
		herr = s.admitted(r.Context(), adm, func() *httpError {
			status = s.serveBatch(w, r, &req, adm)
			return nil
		})
	}
	if herr != nil {
		// Nothing streamed yet: report as a regular HTTP error.
		s.fail(w, herr)
		return
	}
	s.metrics.countRequest(status)
}

// poleJob carries one pole's factorized system through the batch pipeline.
type poleJob struct {
	l       int
	sys     *pselinv.System
	elapsed time.Duration
	err     error
}

// serveBatch runs one admitted batch end to end, streaming NDJSON records
// as poles complete; every failure from here on is an in-band record. It
// returns the request-counter status ("ok"/"error").
func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request, req *BatchRequest, adm *admission) string {
	poles, m, sym := req.Poles, adm.m, adm.sym

	id := fmt.Sprintf("r%06d", s.reqID.Add(1))
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(rec any) {
		if enc.Encode(rec) == nil && flusher != nil {
			flusher.Flush()
		}
	}
	emit(&BatchHeader{
		Type: "header", ID: id,
		N: m.N(), NNZ: m.NNZ(), Snodes: sym.NumSupernodes(),
		Cache: string(adm.outcome), Procs: adm.procs,
		Scheme: adm.scheme.Slug(), Balancer: adm.balancer.Slug(), Ordering: adm.ordName,
		Poles: len(poles),
	})

	// Producer: factorize pole l+1 while pole l inverts (the batch
	// engine's pipeline, request-scoped). The done channel unblocks the
	// producer when the consumer aborts mid-batch.
	jobs := make(chan poleJob, 1)
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer close(jobs)
		for l, p := range poles {
			tf := time.Now()
			sys, err := sym.FactorizeShifted(m, complex(p.ZRe, p.ZIm))
			j := poleJob{l: l, sys: sys, elapsed: time.Since(tf), err: err}
			select {
			case jobs <- j:
			case <-done:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	var density []float64
	if req.Density {
		density = make([]float64, m.N())
		for i := range density {
			density[i] = 0.5
		}
	}
	completed := 0
	for job := range jobs {
		if err := r.Context().Err(); err != nil {
			return "error" // client went away mid-stream
		}
		p := poles[job.l]
		if job.err != nil {
			emit(&BatchStreamError{Type: "error", Index: job.l, Error: "factorization: " + job.err.Error()})
			return "error"
		}
		sys := job.sys
		sys.SetTimeout(adm.timeout)
		sys.SetDAG(req.Dag)
		tInv := time.Now()
		res, err := sys.ParallelSelInv(adm.procs, adm.scheme, adm.seed)
		if err != nil {
			emit(&BatchStreamError{Type: "error", Index: job.l, Error: "inversion: " + err.Error()})
			return "error"
		}
		invDur := time.Since(tInv)
		rec := &BatchPoleResult{
			Type: "pole", Index: job.l, ZRe: p.ZRe, ZIm: p.ZIm,
			ElapsedMS: map[string]float64{
				"factorize": job.elapsed.Seconds() * 1e3,
				"invert":    invDur.Seconds() * 1e3,
			},
		}
		if ld, lerr := sys.LogDet(); lerr == nil {
			rec.LogDetRe, rec.LogDetIm = real(ld), imag(ld)
		}
		if req.Diagonal || req.Density {
			d := res.DiagonalComplex()
			if req.Diagonal {
				rec.DiagonalRe, rec.DiagonalIm = splitComplex(d)
			}
			if req.Density {
				wt := complex(p.WRe, p.WIm)
				for i, v := range d {
					density[i] += real(wt * v)
				}
			}
		}
		res.Release()
		sys.Release() // the record holds everything it read of the factor
		s.metrics.observe("pole_factorize", job.elapsed)
		s.metrics.observe("pole_invert", invDur)
		emit(rec)
		completed++
	}
	s.metrics.recordBatch(completed)
	emit(&BatchTrailer{
		Type: "done", Poles: completed, Density: density,
		ElapsedMS: time.Since(adm.t0).Seconds() * 1e3,
	})
	return "ok"
}
