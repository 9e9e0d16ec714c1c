package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"pselinv"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/distrun"
	"pselinv/internal/etree"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/sparse"
)

func TestMain(m *testing.M) {
	// tcp_dg2d_p4 re-executes this test binary as its workers.
	distrun.MaybeWorker()
	os.Exit(m.Run())
}

// smoke runs the benchmark in smoke mode (tiny matrices, one round, 0.2 s
// windows) and returns the exit code and the decoded last line of stdout.
func smoke(t *testing.T, into any, args ...string) int {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	var stdout, stderr bytes.Buffer
	args = append([]string{"-smoke", "-out", t.TempDir()}, args...)
	code := run(args, &stdout, &stderr)
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], into); err != nil {
		t.Fatalf("last stdout line is not the result: %v\nstderr:\n%s", err, stderr.String())
	}
	return code
}

// countMetrics are the end-to-end metrics that must repeat exactly.
var countMetrics = []string{
	"comm_total_mb", "comm_max_sent_mb", "colbcast_max_sent_mb",
	"rowreduce_max_recv_mb", "msgs_total", "flop_imbalance",
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, workload string, r result, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, r.Correct, r.Attempted, r.Failed)
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, d.Name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
			t.Errorf("%s: metric %s = %v %q, want a finite value in %q", workload, d.Name, m.Value, m.Unit, d.Unit)
		}
	}
}

// TestSmoke runs every workload twice — once all together with the count and
// traced passes, once alone with tracing off — and checks that every metric
// is there, finite and named as the catalog says, that end-to-end metrics are
// never 0, and that the six count metrics repeat exactly.
func TestSmoke(t *testing.T) {
	all := map[string]result{}
	if code := smoke(t, &all); code != 0 {
		t.Fatalf("all-workloads run exited %d", code)
	}
	for _, w := range allWorkloads() {
		first, ok := all[w.name()]
		if !ok {
			t.Fatalf("%s missing from the all-workloads result", w.name())
		}
		if !nameRE.MatchString(w.name()) {
			t.Errorf("workload name %q", w.name())
		}
		checkMetrics(t, w.name(), first, endToEndDefs)
		checkMetrics(t, w.name(), first, perLayerDefs)
		// layers.go re-implements the op of these two workloads as direct
		// layer calls. A step it drops or doubles shows as a traced op far
		// from the untraced one; the band is wide because smoke ops take
		// under a millisecond on a shared host.
		if f := first.Metrics["driver.trace_overhead_frac"].Value; (w.name() == "warm_dg2d_p16" || w.name() == "cold_grid2d_p16") && (f < -0.6 || f > 2) {
			t.Errorf("%s: traced op is %.2f x the untraced op_ms_p50, want 0.4 to 3", w.name(), 1+f)
		}
		for name := range first.Metrics {
			if !nameRE.MatchString(name) {
				t.Errorf("%s: metric name %q", w.name(), name)
			}
		}

		var second result
		if code := smoke(t, &second, "--workload", w.name(), "--trace", "0"); code != 0 {
			t.Fatalf("%s alone exited %d", w.name(), code)
		}
		checkMetrics(t, w.name(), second, endToEndDefs)
		if len(second.Metrics) != len(endToEndDefs) {
			t.Errorf("%s --trace 0 printed %d metrics, want the %d end-to-end ones", w.name(), len(second.Metrics), len(endToEndDefs))
		}
		for _, d := range endToEndDefs {
			if second.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name(), d.Name, second.Metrics[d.Name].Value)
			}
		}
		for _, name := range countMetrics {
			if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
				t.Errorf("%s: count metric %s differs between invocations: %v vs %v", w.name(), name, a, b)
			}
		}

		var layered result
		if w.name() == "warm_dg2d_p16" { // the --trace 1 form of the contract, once
			if code := smoke(t, &layered, "--workload", w.name(), "--trace", "1"); code != 0 {
				t.Fatalf("%s --trace 1 exited %d", w.name(), code)
			}
			checkMetrics(t, w.name(), layered, perLayerDefs)
			if len(layered.Metrics) != len(perLayerDefs) {
				t.Errorf("--trace 1 printed %d metrics, want the %d per-layer ones", len(layered.Metrics), len(perLayerDefs))
			}
		}
	}
}

// TestInjectedFault perturbs one reference entry: the op that is checked
// against it must be counted as failed and the run must exit non-zero.
func TestInjectedFault(t *testing.T) {
	for _, name := range []string{"warm_dg2d_p16", "tcp_dg2d_p4"} {
		var r result
		code := smoke(t, &r, "--workload", name, "-inject-fault")
		if code == 0 || r.Correct || r.Failed == 0 || r.Failed > r.Attempted {
			t.Errorf("%s: exit %d correct=%v failed=%d of %d, want a non-zero exit and failed ops",
				name, code, r.Correct, r.Failed, r.Attempted)
		}
	}
}

// TestDecompositionCheck: the traced pass must notice when the options it
// spells out stop matching the library's unexported defaults.
func TestDecompositionCheck(t *testing.T) {
	gen := sparse.DG2D(12, 12, 4, 1)
	sys, err := pselinv.NewSystem(pselinv.DG2D(12, 12, 4, 1), libOptions)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := observedCounts(sys, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		width int
		seed  uint64
		want  string // substring of the error; "" for none
	}{
		{maxWidth, planSeed, ""},
		{maxWidth / 2, planSeed, "supernodes"},
		{maxWidth, planSeed + 1, "Col-Bcast"},
	} {
		perm := ordering.Compute(ordering.NestedDissection, gen.A, gen.Geom)
		an := etree.Analyze(gen.A.Permute(perm), perm, etree.Options{Relax: relax, MaxWidth: c.width})
		plan := core.NewPlanConfig(an.BP, procgrid.Squarish(16), core.PlanConfig{Scheme: scheme, Seed: c.seed, Symmetric: true})
		err := checkDecomposition(an, plan, dense.Real, sys, counts)
		if (err == nil) != (c.want == "") || (err != nil && !strings.Contains(err.Error(), c.want)) {
			t.Errorf("MaxWidth %d seed %d: error %v, want one mentioning %q", c.width, c.seed, err, c.want)
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the catalog in metrics.go.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			metricDef
			Bound float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadWhy) || len(doc.EndToEnd) != len(endToEndDefs) || len(doc.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the catalog has %d, %d and %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloadWhy), len(endToEndDefs), len(perLayerDefs))
	}
	for i, w := range allWorkloads() {
		if doc.Workloads[i].Name != w.name() || doc.Workloads[i].Why != workloadWhy[i].Why || len(doc.Workloads[i].Why) > 200 {
			t.Errorf("workload %d: %+v vs %s / %+v", i, doc.Workloads[i], w.name(), workloadWhy[i])
		}
	}
	for i, d := range endToEndDefs {
		if doc.EndToEnd[i].metricDef != d {
			t.Errorf("end_to_end[%d] = %+v, catalog has %+v", i, doc.EndToEnd[i].metricDef, d)
		}
		// The issue's fixed bounds: counts repeat exactly, allocation 0.05,
		// wall- and CPU-time metrics 0.10 and never wider. setup_s alone has
		// the benchmark contract's 0.25: the contract wants set-up to carry
		// the largest bound and it cannot be demoted.
		want := 0.10
		switch {
		case slices.Contains(countMetrics, d.Name):
			want = 0
		case d.Name == "alloc_mb_per_op":
			want = 0.05
		case d.Name == "setup_s":
			want = 0.25
		}
		if b := doc.EndToEnd[i].Bound; b != want {
			t.Errorf("%s: bound %v, want %v", d.Name, b, want)
		}
	}
	for i, d := range perLayerDefs {
		if doc.PerLayer[i] != d {
			t.Errorf("per_layer[%d] = %+v, catalog has %+v", i, doc.PerLayer[i], d)
		}
	}
}
