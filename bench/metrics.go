package main

// The metric catalog. BENCHMARK.json at the repo root lists exactly these
// names, units and directions (bench_test.go pins the two against each
// other); bounds live only in BENCHMARK.json.

type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is what a user of the system sees, measured with tracing off and
// gated by a bound. The first two are medians over rounds of a per-round
// statistic; the last six are counts of one op's plan and repeat exactly.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"alloc_mb_per_op", "mb", "lower"},
	{"comm_total_mb", "mb", "lower"},
	{"comm_max_sent_mb", "mb", "lower"},
	{"colbcast_max_sent_mb", "mb", "lower"},
	{"rowreduce_max_recv_mb", "mb", "lower"},
	{"msgs_total", "count", "lower"},
	{"flop_imbalance", "ratio", "lower"},
}

// perLayer metrics are named <module>.<what>. A "<span>_ms" metric is the
// mean wall time of the traced-pass span of that name; a layer that does no
// work on a workload reports 0 there.
//
// The first three are the op's wall- and CPU-time metrics, measured over the
// same untraced windows as alloc_mb_per_op. The issue defined them as
// end-to-end metrics with bound 0.10; on the shared development host they
// drift up to 18.7 % between identical sets (CALIBRATION.md), so under the
// issue's rule 5 (lengthen, then demote, never widen) they are reported here,
// without a bound.
var perLayerDefs = []metricDef{
	{"op_ms_p50", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"sparse.mm_parse_ms", "ms", "lower"},
	{"sparse.fingerprint_ms", "ms", "lower"},
	{"sparse.permute_ms", "ms", "lower"},
	{"ordering.nd_ms", "ms", "lower"},
	{"ordering.fill_ratio", "ratio", "lower"},
	{"etree.analyze_ms", "ms", "lower"},
	{"etree.snodes", "count", "lower"},
	{"etree.factor_nnz", "count", "lower"},
	{"factor.factorize_ms", "ms", "lower"},
	{"factor.zfactorize_ms", "ms", "lower"},
	{"factor.gflops", "gflop/s", "higher"},
	{"dense.gemm_gflops_engine", "gflop/s", "higher"},
	{"dense.trsm_gflops_engine", "gflop/s", "higher"},
	{"dense.zgemm_gflops_engine", "gflop/s", "higher"},
	{"dense.shape_m_p50", "count", "higher"},
	{"dense.shape_k_p50", "count", "higher"},
	{"dense.flops_small_frac", "ratio", "lower"},
	{"core.plan_build_ms", "ms", "lower"},
	{"core.plan_msgs", "count", "lower"},
	{"core.tree_depth_max", "count", "lower"},
	{"core.nnz_imbalance", "ratio", "lower"},
	{"pselinv.template_build_ms", "ms", "lower"},
	{"pselinv.run_ms", "ms", "lower"},
	{"pselinv.busy_frac", "ratio", "higher"},
	{"pselinv.send_wait_frac", "ratio", "lower"},
	{"pselinv.recv_wait_frac", "ratio", "lower"},
	{"pselinv.idle_frac", "ratio", "lower"},
	{"pselinv.straggler_max_ratio", "ratio", "lower"},
	{"pselinv.dag_occupancy", "ratio", "higher"},
	{"simmpi.msgs_colbcast", "count", "lower"},
	{"simmpi.msgs_rowreduce", "count", "lower"},
	{"simmpi.queue_hwm_max", "count", "lower"},
	{"simmpi.recv_wait_ms", "ms", "lower"},
	{"simmpi.send_recv_ns", "ns", "lower"},
	{"obs.observed_run_ms", "ms", "lower"},
	{"obs.overhead_ratio", "ratio", "lower"},
	{"obs.report_json_kb", "kb", "lower"},
	{"netsim.pred_makespan_ms", "ms", "lower"},
	{"netsim.pred_over_measured", "ratio", "lower"},
	{"netsim.simulate_ms", "ms", "lower"},
	{"tcptransport.pingpong_us", "us", "lower"},
	{"tcptransport.stream_mb_s", "mb/s", "higher"},
	{"tcptransport.handshake_ms", "ms", "lower"},
	{"distrun.stage_ms", "ms", "lower"},
	{"distrun.launch_ms", "ms", "lower"},
	{"distrun.parallel_section_ms", "ms", "lower"},
	{"distrun.mesh_overhead_frac", "ratio", "lower"},
	{"distrun.dial_retries", "count", "lower"},
	{"distrun.worker_cpu_ms", "ms", "lower"},
	{"pexsi.factor_ms_per_pole", "ms", "lower"},
	{"pexsi.invert_ms_per_pole", "ms", "lower"},
	{"pexsi.overlap_frac", "ratio", "higher"},
	{"pexsi.analysis_ms_per_batch", "ms", "lower"},
	{"pexsi.alloc_mb_per_pole", "mb", "lower"},
	{"server.analyze_ms", "ms", "lower"},
	{"server.factorize_ms", "ms", "lower"},
	{"server.invert_ms", "ms", "lower"},
	{"server.overhead_ms", "ms", "lower"},
	{"server.cache_hit_frac", "ratio", "higher"},
	{"server.rejected_frac", "ratio", "lower"},
	{"server.req_kb", "kb", "lower"},
	{"server.resp_kb", "kb", "lower"},
	{"driver.ops", "count", "higher"},
	{"driver.ops_failed", "count", "lower"},
	{"driver.op_ms_tail", "ms", "lower"},
	{"driver.tail_pct", "%", "higher"},
	{"driver.round_spread", "ratio", "lower"},
	{"driver.trace_overhead_frac", "ratio", "lower"},
	{"driver.steal_frac", "ratio", "lower"},
	{"driver.peak_rss_mb", "mb", "lower"},
}

// workloadWhy records why each workload exists (one line each; the long
// form is in README.md).
var workloadWhy = []struct{ Name, Why string }{
	{"warm_dg2d_p16", "library PEXSI loop on a warm Symbolic: factor and the real in-process engine do the op; analysis layers do none"},
	{"cold_grid2d_p16", "all-cold MatrixMarket upload: parse, graph ND, symbolic, plan and template dominate; engine is message-count-bound"},
	{"pexsi_z16_p16", "16-pole complex batch: 4M complex GEMM, general path, gather reductions, task-DAG scheduler, factor/invert pipelining"},
	{"tcp_dg2d_p4", "4 real processes over loopback TCP: spawn, per-worker rebuild, mesh and framing dominate; engine share is small"},
	{"serve_upload_c2", "2 closed-loop HTTP clients on the daemon path, plan-cache hits: JSON, parse, fingerprint plus two contending engines"},
}
