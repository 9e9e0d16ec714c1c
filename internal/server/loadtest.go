package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// LoadConfig parameterizes the load generator. The zero value (plus URL)
// selects a geometry-free pattern whose misses pay the general-graph
// ordering (mostly minimum degree: a random graph has no small separator),
// analysis and plan — the regime the plan cache exists for.
type LoadConfig struct {
	// URL is the server base URL, e.g. "http://127.0.0.1:8723".
	URL string
	// ColdPatterns is the number of distinct sparsity patterns requested
	// once each (every one a cache miss). Default 3.
	ColdPatterns int
	// WarmRequests is the number of same-pattern requests (after one
	// warming miss) with varying diagonal shifts — all cache hits.
	// Default 9.
	WarmRequests int
	// N/Deg shape the randomsym test matrices. Defaults 2400/6.
	N, Deg int
	// Procs/Scheme for every request. Defaults 16/"shifted".
	Procs  int
	Scheme string
	// Trace requests a Chrome trace on the final warm request.
	Trace bool
	// Timeout bounds each HTTP request. Default 2m.
	Timeout time.Duration
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.ColdPatterns <= 0 {
		c.ColdPatterns = 3
	}
	if c.WarmRequests <= 0 {
		c.WarmRequests = 9
	}
	if c.N <= 0 {
		c.N = 2400
	}
	if c.Deg <= 0 {
		c.Deg = 6
	}
	if c.Procs <= 0 {
		c.Procs = 16
	}
	if c.Scheme == "" {
		c.Scheme = "shifted"
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Minute
	}
	return c
}

// LoadReport summarizes a load-test run: client-side latency medians for
// cold (distinct-pattern) and warm (same-pattern) requests, their ratio,
// and the server's cache counters scraped from /metrics.
type LoadReport struct {
	Cold, Warm             int
	ColdMedian, WarmMedian time.Duration
	// Ratio is ColdMedian / WarmMedian — the plan cache's speedup on the
	// PEXSI-shaped workload.
	Ratio float64
	// Counters scraped from /metrics after the run.
	Hits, Misses, Coalesced, Evictions uint64
	// TracePath, when tracing was requested, is the /debug/trace path of
	// the final warm request.
	TracePath string
}

func (r *LoadReport) String() string {
	return fmt.Sprintf(
		"loadtest: %d cold (median %v), %d warm (median %v), speedup %.2fx; cache hits=%d misses=%d coalesced=%d evictions=%d",
		r.Cold, r.ColdMedian.Round(time.Millisecond),
		r.Warm, r.WarmMedian.Round(time.Millisecond),
		r.Ratio, r.Hits, r.Misses, r.Coalesced, r.Evictions)
}

// RunLoadTest drives a running server through the PEXSI-shaped workload:
// first ColdPatterns distinct patterns (all misses), then WarmRequests
// same-pattern requests differing only in the diagonal shift (all hits),
// measuring client-observed latency for each phase.
func RunLoadTest(cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	client := &http.Client{Timeout: cfg.Timeout}

	post := func(req *Request) (*Response, time.Duration, error) {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		hr, err := client.Post(cfg.URL+"/v1/selinv", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		defer hr.Body.Close()
		elapsed := time.Since(t0)
		if hr.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(hr.Body, 512))
			return nil, elapsed, fmt.Errorf("status %d: %s", hr.StatusCode, strings.TrimSpace(string(msg)))
		}
		var resp Response
		if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
			return nil, elapsed, err
		}
		return &resp, elapsed, nil
	}

	spec := func(seed int64) MatrixSpec {
		return MatrixSpec{Kind: "randomsym", N: cfg.N, Deg: cfg.Deg, Seed: seed}
	}

	rep := &LoadReport{}
	var coldLat []time.Duration
	// Cold phase: every request a fresh pattern. Seed 1 doubles as the
	// warm phase's pattern, so its analysis is resident afterwards.
	for i := 0; i < cfg.ColdPatterns; i++ {
		resp, lat, err := post(&Request{Matrix: spec(int64(i + 1)), Procs: cfg.Procs, Scheme: cfg.Scheme})
		if err != nil {
			return nil, fmt.Errorf("cold request %d: %w", i, err)
		}
		if resp.Cache != string(CacheMiss) {
			return nil, fmt.Errorf("cold request %d: expected cache miss, got %q", i, resp.Cache)
		}
		coldLat = append(coldLat, lat)
		rep.Cold++
	}
	// Warm phase: pattern of seed 1, values varied by diagonal shift.
	var warmLat []time.Duration
	for i := 0; i < cfg.WarmRequests; i++ {
		req := &Request{
			Matrix: spec(1),
			Shift:  0.25 * float64(i+1),
			Procs:  cfg.Procs,
			Scheme: cfg.Scheme,
		}
		if cfg.Trace && i == cfg.WarmRequests-1 {
			req.Trace = true
		}
		resp, lat, err := post(req)
		if err != nil {
			return nil, fmt.Errorf("warm request %d: %w", i, err)
		}
		if resp.Cache != string(CacheHit) {
			return nil, fmt.Errorf("warm request %d: expected cache hit, got %q", i, resp.Cache)
		}
		warmLat = append(warmLat, lat)
		rep.Warm++
		if resp.TracePath != "" {
			rep.TracePath = resp.TracePath
		}
	}

	rep.ColdMedian = medianDuration(coldLat)
	rep.WarmMedian = medianDuration(warmLat)
	if rep.WarmMedian > 0 {
		rep.Ratio = float64(rep.ColdMedian) / float64(rep.WarmMedian)
	}

	counters, err := ScrapeCounters(client, cfg.URL)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	rep.Hits = counters["pselinvd_plan_cache_hits_total"]
	rep.Misses = counters["pselinvd_plan_cache_misses_total"]
	rep.Coalesced = counters["pselinvd_plan_cache_coalesced_total"]
	rep.Evictions = counters["pselinvd_plan_cache_evictions_total"]
	return rep, nil
}

func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ScrapeCounters fetches /metrics and returns every un-labelled
// counter/gauge line as name -> integer value (labelled series are
// skipped). It is the parsing half of the load generator's cache
// verification, exported for tests and tooling.
func ScrapeCounters(client *http.Client, baseURL string) (map[string]uint64, error) {
	hr, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics status %d", hr.StatusCode)
	}
	out := map[string]uint64{}
	sc := bufio.NewScanner(hr.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.Contains(fields[0], "{") {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || v < 0 {
			continue
		}
		out[fields[0]] = uint64(v)
	}
	return out, sc.Err()
}
