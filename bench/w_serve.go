package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"pselinv"
	"pselinv/internal/dense"
	"pselinv/internal/server"
	"pselinv/internal/sparse"
)

// serve is the daemon path: closed-loop clients POST an inline MatrixMarket
// matrix with a rotating shift to /v1/selinv of an in-process pselinvd
// handler on a loopback listener. Every timed request is a plan-cache hit;
// the one miss is paid in set-up.
type serve struct {
	nx, dofs, procs, nclients int
	seed                      int64
	sigmas                    []float64
	refs                      [][]float64

	text  string
	srv   *http.Server
	url   string
	conns []*http.Client

	// tallies over every checked request, for the server.* layer metrics
	seen, hits, rejected int
	overheadMS           []float64
	reqBytes, respBytes  int
}

// served is what one request leaves behind for check.
type served struct {
	status    int
	resp      server.Response
	clientMS  float64
	reqBytes  int
	respBytes int
}

func (w *serve) name() string { return "serve_upload_c2" }
func (w *serve) clients() int { return w.nclients }

func (w *serve) matrixText() (string, error) {
	var buf strings.Builder
	err := pselinv.DG2D(w.nx, w.nx, w.dofs, w.seed).WriteMatrixMarket(&buf)
	return buf.String(), err
}

func (w *serve) prep(cfg config) error {
	w.nx, w.dofs, w.procs, w.nclients, w.seed = 14, 4, 16, 2, cfg.seed
	if cfg.smoke {
		w.nx, w.dofs = 6, 2
	}
	w.sigmas = shifts(cfg.seed)
	var err error
	w.refs, err = serialDiagonals(pselinv.DG2D(w.nx, w.nx, w.dofs, w.seed), w.sigmas)
	if err == nil && cfg.injectFault {
		w.refs[0][0] *= 1.001
	}
	return err
}

// setup generates the matrix text, starts the server and pays the one
// plan-cache miss.
func (w *serve) setup() error {
	var err error
	if w.text, err = w.matrixText(); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = &http.Server{Handler: server.New(server.Config{}).Handler()}
	go w.srv.Serve(ln) // returns once teardown shuts the server down
	w.url = "http://" + ln.Addr().String() + "/v1/selinv"
	w.conns = make([]*http.Client, w.nclients)
	for i := range w.conns {
		w.conns[i] = &http.Client{Transport: &http.Transport{}, Timeout: runTimeout}
	}
	s, err := w.exchange(nil, 0, 0)
	if err != nil {
		return err
	}
	if s.resp.Cache != string(server.CacheMiss) {
		return fmt.Errorf("first request of a fresh server: status %d, cache %q, want a miss", s.status, s.resp.Cache)
	}
	return nil
}

func (w *serve) teardown() {
	if w.srv == nil {
		return
	}
	for _, c := range w.conns {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.srv.Shutdown(ctx); err != nil {
		w.srv.Close()
	}
	w.srv, w.conns, w.text = nil, nil, ""
}

// exchange is one request in its three client-side stages; tr may be nil.
func (w *serve) exchange(tr *tracer, client, idx int) (*served, error) {
	out := &served{}
	t0 := time.Now()
	var body, raw []byte
	var err error
	tr.do("server.client_encode", func() {
		body, err = json.Marshal(&server.Request{
			Matrix:   server.MatrixSpec{Kind: "matrixmarket", Data: w.text},
			Shift:    w.sigmas[idx%numVariants],
			Procs:    w.procs,
			Diagonal: true,
		})
	})
	if err != nil {
		return nil, err
	}
	tr.do("server.http_roundtrip", func() {
		var hr *http.Response
		if hr, err = w.conns[client].Post(w.url, "application/json", bytes.NewReader(body)); err != nil {
			return
		}
		defer hr.Body.Close()
		out.status = hr.StatusCode
		raw, err = io.ReadAll(hr.Body)
	})
	if err != nil {
		return nil, err
	}
	out.reqBytes, out.respBytes = len(body), len(raw)
	if out.status == http.StatusOK { // otherwise the body is an error message
		tr.do("server.client_decode", func() { err = json.Unmarshal(raw, &out.resp) })
	}
	out.clientMS = ms(time.Since(t0))
	return out, err
}

func (w *serve) op(client, idx int) (any, error) { return w.exchange(nil, client, idx) }

func (w *serve) check(idx int, out any) error {
	s := out.(*served)
	w.seen++
	if s.status == http.StatusServiceUnavailable {
		w.rejected++
	}
	if s.status != http.StatusOK {
		return fmt.Errorf("HTTP status %d", s.status)
	}
	w.overheadMS = append(w.overheadMS, s.clientMS-s.resp.ElapsedMS["total"])
	w.reqBytes, w.respBytes = s.reqBytes, s.respBytes
	if s.resp.Cache != string(server.CacheHit) {
		return fmt.Errorf("plan cache %q, want a hit", s.resp.Cache)
	}
	w.hits++
	return checkDiag("diagonal", s.resp.Diagonal, w.refs[idx%numVariants])
}

// replay builds the request's matrix in process the way the server does:
// parsed from the text (so no grid geometry), then shifted.
func (w *serve) replay() (*pselinv.System, *sparse.CSC, error) {
	text, err := w.matrixText()
	if err != nil {
		return nil, nil, err
	}
	m, err := pselinv.FromMatrixMarket(strings.NewReader(text), "request-matrix")
	if err != nil {
		return nil, nil, err
	}
	sh, err := m.Shifted(w.sigmas[0])
	if err != nil {
		return nil, nil, err
	}
	sys, err := pselinv.NewSystem(sh, libOptions)
	if err != nil {
		return nil, nil, err
	}
	a, err := sparse.ReadMatrixMarket(strings.NewReader(text))
	return sys, a, err
}

func (w *serve) counts() (opCounts, error) {
	sys, _, err := w.replay()
	if err != nil {
		return opCounts{}, err
	}
	return observedCounts(sys, w.procs)
}

// serverPhases maps the server's elapsed_ms phases to spans named after the
// layer that does the work. What is left of "total" after the three timed
// phases is the server realizing the matrix: MatrixMarket parse, shift and
// pattern fingerprint.
var serverPhases = []struct{ phase, span string }{
	{"analyze", "server.cache_lookup"},
	{"factorize", "factor.request_factorize"},
	{"invert", "pselinv.request_invert"},
}

// traced runs one request on client 0 with the server's own elapsed_ms
// phases as children of the round trip.
func (w *serve) traced(tr *tracer, idx int) error {
	if w.srv == nil {
		if err := w.setup(); err != nil {
			return err
		}
	}
	var err error
	tr.root("op."+w.name(), idx, func() {
		var s *served
		if s, err = w.exchange(tr, 0, idx); err != nil {
			return
		}
		if err = w.check(idx, s); err != nil {
			return
		}
		rt := tr.last("server.http_roundtrip")
		rest := s.resp.ElapsedMS["total"]
		for _, p := range serverPhases {
			rest -= s.resp.ElapsedMS[p.phase]
			tr.child(rt, p.span, time.Duration(s.resp.ElapsedMS[p.phase]*float64(time.Millisecond)))
		}
		tr.child(rt, "sparse.request_parse", time.Duration(rest*float64(time.Millisecond)))
	})
	return err
}

func (w *serve) layers(tr *tracer, lm map[string]float64, extra map[string]any) error {
	w.teardown()
	for _, p := range serverPhases {
		lm["server."+p.phase+"_ms"] = tr.meanMS(p.span)
	}
	lm["sparse.mm_parse_ms"] = tr.meanMS("sparse.request_parse")
	// Over every request this invocation checked, two-client windows
	// included: overhead is the client's latency minus the server's own total.
	if w.seen > 0 {
		lm["server.cache_hit_frac"] = float64(w.hits) / float64(w.seen)
		lm["server.rejected_frac"] = float64(w.rejected) / float64(w.seen)
		lm["server.overhead_ms"] = median(w.overheadMS)
		lm["server.req_kb"] = float64(w.reqBytes) / 1024
		lm["server.resp_kb"] = float64(w.respBytes) / 1024
	}
	sys, a, err := w.replay()
	if err != nil {
		return err
	}
	// The server's engine wall is its invert phase.
	return inprocLayers(tr, lm["server.invert_ms"], sys, a, nil, w.procs, true, dense.Real, lm, extra)
}
