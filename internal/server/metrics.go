package server

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"
)

// histBuckets are the latency histogram upper bounds in seconds,
// log-spaced from 1 ms to 60 s; an implicit +Inf bucket follows.
var histBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// histogram is a fixed-bucket latency histogram (Prometheus semantics:
// cumulative buckets, sum, count).
type histogram struct {
	counts []uint64 // per bucket, non-cumulative; len(histBuckets)+1
	sum    float64
	total  uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(histBuckets)+1)}
}

func (h *histogram) observe(seconds float64) {
	i := sort.SearchFloat64s(histBuckets, seconds)
	h.counts[i]++
	h.sum += seconds
	h.total++
}

// metrics aggregates everything /metrics exposes. All methods are safe for
// concurrent use.
type metrics struct {
	mu        sync.Mutex
	start     time.Time
	requests  map[string]uint64     // status label -> count
	latencies map[string]*histogram // phase label -> histogram

	// Batch-endpoint counters (/v1/selinv/batch).
	batchRuns  uint64
	batchPoles uint64

	// Communication-observability aggregates over observed runs
	// ("obs": true requests).
	obsRuns         uint64
	obsClassBytes   map[string]int64 // class label -> cumulative sent bytes
	obsVolImbalance float64          // last observed run's max/mean sent volume
	obsMaxQueue     int              // largest mailbox queue-depth HWM seen
	obsRecvWaitSec  float64          // cumulative blocked-receive wait
}

func newMetrics() *metrics {
	return &metrics{
		start:         time.Now(),
		requests:      map[string]uint64{},
		latencies:     map[string]*histogram{},
		obsClassBytes: map[string]int64{},
	}
}

// recordObs folds one observed run's aggregates into the obs counters.
func (m *metrics) recordObs(classBytes map[string]int64, volImbalance float64, maxQueue int, recvWait time.Duration) {
	m.mu.Lock()
	m.obsRuns++
	for class, b := range classBytes {
		m.obsClassBytes[class] += b
	}
	m.obsVolImbalance = volImbalance
	if maxQueue > m.obsMaxQueue {
		m.obsMaxQueue = maxQueue
	}
	m.obsRecvWaitSec += recvWait.Seconds()
	m.mu.Unlock()
}

// recordBatch folds one batch run's completed pole count into the batch
// counters.
func (m *metrics) recordBatch(poles int) {
	m.mu.Lock()
	m.batchRuns++
	m.batchPoles += uint64(poles)
	m.mu.Unlock()
}

func (m *metrics) countRequest(status string) {
	m.mu.Lock()
	m.requests[status]++
	m.mu.Unlock()
}

func (m *metrics) observe(phase string, d time.Duration) {
	m.mu.Lock()
	h := m.latencies[phase]
	if h == nil {
		h = newHistogram()
		m.latencies[phase] = h
	}
	h.observe(d.Seconds())
	m.mu.Unlock()
}

// gauges are sampled at scrape time by the server.
type gauges struct {
	PoolInUse, PoolCapacity, QueueDepth, QueueCapacity int
	TracesRetained                                     int
	// KernelWorkers is the internal/dense pool degree: that many minus one
	// task-DAG offload slots, the concurrency available to "dag": true
	// requests (the kernels themselves run on the caller's goroutine).
	KernelWorkers int
}

// write renders the Prometheus text exposition format (version 0.0.4).
func (m *metrics) write(w io.Writer, cs CacheStats, g gauges) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP pselinvd_build_info Build and runtime configuration (value is always 1).\n")
	fmt.Fprintf(w, "# TYPE pselinvd_build_info gauge\n")
	fmt.Fprintf(w, "pselinvd_build_info{go_version=%q,kernel_workers=\"%d\",engine_slots=\"%d\"} 1\n",
		runtime.Version(), g.KernelWorkers, g.PoolCapacity)

	fmt.Fprintf(w, "# HELP pselinvd_uptime_seconds Time since server start.\n")
	fmt.Fprintf(w, "# TYPE pselinvd_uptime_seconds gauge\n")
	fmt.Fprintf(w, "pselinvd_uptime_seconds %g\n", time.Since(m.start).Seconds())

	fmt.Fprintf(w, "# HELP pselinvd_requests_total Requests by terminal status.\n")
	fmt.Fprintf(w, "# TYPE pselinvd_requests_total counter\n")
	statuses := make([]string, 0, len(m.requests))
	for s := range m.requests {
		statuses = append(statuses, s)
	}
	sort.Strings(statuses)
	for _, s := range statuses {
		fmt.Fprintf(w, "pselinvd_requests_total{status=%q} %d\n", s, m.requests[s])
	}

	fmt.Fprintf(w, "# HELP pselinvd_plan_cache_hits_total Symbolic-plan cache hits.\n")
	fmt.Fprintf(w, "# TYPE pselinvd_plan_cache_hits_total counter\n")
	fmt.Fprintf(w, "pselinvd_plan_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(w, "# HELP pselinvd_plan_cache_misses_total Symbolic-plan cache misses (builds).\n")
	fmt.Fprintf(w, "# TYPE pselinvd_plan_cache_misses_total counter\n")
	fmt.Fprintf(w, "pselinvd_plan_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "# HELP pselinvd_plan_cache_coalesced_total Lookups that waited on another request's in-flight build.\n")
	fmt.Fprintf(w, "# TYPE pselinvd_plan_cache_coalesced_total counter\n")
	fmt.Fprintf(w, "pselinvd_plan_cache_coalesced_total %d\n", cs.Coalesced)
	fmt.Fprintf(w, "# HELP pselinvd_plan_cache_evictions_total LRU evictions.\n")
	fmt.Fprintf(w, "# TYPE pselinvd_plan_cache_evictions_total counter\n")
	fmt.Fprintf(w, "pselinvd_plan_cache_evictions_total %d\n", cs.Evictions)
	fmt.Fprintf(w, "# HELP pselinvd_plan_cache_entries Resident cached analyses.\n")
	fmt.Fprintf(w, "# TYPE pselinvd_plan_cache_entries gauge\n")
	fmt.Fprintf(w, "pselinvd_plan_cache_entries %d\n", cs.Entries)

	fmt.Fprintf(w, "# HELP pselinvd_pool_in_use Engine slots currently executing requests.\n")
	fmt.Fprintf(w, "# TYPE pselinvd_pool_in_use gauge\n")
	fmt.Fprintf(w, "pselinvd_pool_in_use %d\n", g.PoolInUse)
	fmt.Fprintf(w, "# HELP pselinvd_pool_capacity Engine slot capacity.\n")
	fmt.Fprintf(w, "# TYPE pselinvd_pool_capacity gauge\n")
	fmt.Fprintf(w, "pselinvd_pool_capacity %d\n", g.PoolCapacity)
	fmt.Fprintf(w, "# HELP pselinvd_queue_depth Requests waiting for a slot.\n")
	fmt.Fprintf(w, "# TYPE pselinvd_queue_depth gauge\n")
	fmt.Fprintf(w, "pselinvd_queue_depth %d\n", g.QueueDepth)
	fmt.Fprintf(w, "# HELP pselinvd_queue_capacity Waiting-request capacity before 503.\n")
	fmt.Fprintf(w, "# TYPE pselinvd_queue_capacity gauge\n")
	fmt.Fprintf(w, "pselinvd_queue_capacity %d\n", g.QueueCapacity)
	fmt.Fprintf(w, "# HELP pselinvd_traces_retained Per-request Chrome traces in the debug ring.\n")
	fmt.Fprintf(w, "# TYPE pselinvd_traces_retained gauge\n")
	fmt.Fprintf(w, "pselinvd_traces_retained %d\n", g.TracesRetained)

	fmt.Fprintf(w, "# HELP pselinvd_batch_runs_total Multi-pole batch requests that streamed to completion.\n")
	fmt.Fprintf(w, "# TYPE pselinvd_batch_runs_total counter\n")
	fmt.Fprintf(w, "pselinvd_batch_runs_total %d\n", m.batchRuns)
	fmt.Fprintf(w, "# HELP pselinvd_batch_poles_total Poles evaluated across batch requests.\n")
	fmt.Fprintf(w, "# TYPE pselinvd_batch_poles_total counter\n")
	fmt.Fprintf(w, "pselinvd_batch_poles_total %d\n", m.batchPoles)

	fmt.Fprintf(w, "# HELP pselinvd_obs_runs_total Requests served with communication observability.\n")
	fmt.Fprintf(w, "# TYPE pselinvd_obs_runs_total counter\n")
	fmt.Fprintf(w, "pselinvd_obs_runs_total %d\n", m.obsRuns)
	fmt.Fprintf(w, "# HELP pselinvd_obs_sent_bytes_total Bytes sent per communication class across observed runs.\n")
	fmt.Fprintf(w, "# TYPE pselinvd_obs_sent_bytes_total counter\n")
	classes := make([]string, 0, len(m.obsClassBytes))
	for c := range m.obsClassBytes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(w, "pselinvd_obs_sent_bytes_total{class=%q} %d\n", c, m.obsClassBytes[c])
	}
	fmt.Fprintf(w, "# HELP pselinvd_obs_volume_imbalance Max/mean per-rank sent volume of the last observed run.\n")
	fmt.Fprintf(w, "# TYPE pselinvd_obs_volume_imbalance gauge\n")
	fmt.Fprintf(w, "pselinvd_obs_volume_imbalance %g\n", m.obsVolImbalance)
	fmt.Fprintf(w, "# HELP pselinvd_obs_queue_depth_max Largest mailbox queue-depth high-watermark over observed runs.\n")
	fmt.Fprintf(w, "# TYPE pselinvd_obs_queue_depth_max gauge\n")
	fmt.Fprintf(w, "pselinvd_obs_queue_depth_max %d\n", m.obsMaxQueue)
	fmt.Fprintf(w, "# HELP pselinvd_obs_recv_wait_seconds_total Blocked-receive wait summed over ranks and observed runs.\n")
	fmt.Fprintf(w, "# TYPE pselinvd_obs_recv_wait_seconds_total counter\n")
	fmt.Fprintf(w, "pselinvd_obs_recv_wait_seconds_total %g\n", m.obsRecvWaitSec)

	phases := make([]string, 0, len(m.latencies))
	for p := range m.latencies {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	fmt.Fprintf(w, "# HELP pselinvd_request_seconds Request phase latency.\n")
	fmt.Fprintf(w, "# TYPE pselinvd_request_seconds histogram\n")
	for _, p := range phases {
		h := m.latencies[p]
		var cum uint64
		for i, ub := range histBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "pselinvd_request_seconds_bucket{phase=%q,le=%q} %d\n", p, trimFloat(ub), cum)
		}
		cum += h.counts[len(histBuckets)]
		fmt.Fprintf(w, "pselinvd_request_seconds_bucket{phase=%q,le=\"+Inf\"} %d\n", p, cum)
		fmt.Fprintf(w, "pselinvd_request_seconds_sum{phase=%q} %g\n", p, h.sum)
		fmt.Fprintf(w, "pselinvd_request_seconds_count{phase=%q} %d\n", p, h.total)
	}
}

func trimFloat(f float64) string { return fmt.Sprintf("%g", f) }
