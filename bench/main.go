// Command bench is the repository's one benchmark: five named closed-loop
// workloads, eight gated end-to-end metrics measured with tracing off, and a
// count pass plus a traced pass that attribute the time to layers. See
// README.md in this directory for the definitions and BENCHMARK.json at the
// repository root for the contract.
//
//	bash bench/run.sh --workload warm_dg2d_p16 --seed 1 --seconds 18 --trace 0
//	bash bench/run.sh                 # every workload, rounds interleaved, then count + traced pass
//	bash bench/run.sh -calibrate 3    # three back-to-back sets, drift table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"pselinv/internal/dense"
	"pselinv/internal/distrun"
)

// The run protocol. A run is `rounds` visits to each workload: a fresh timed
// set-up, warmupOps untimed ops, a GC, then one closed-loop window of
// --seconds / rounds. Smoke mode (tests) shrinks it to one 0.2 s window on
// tiny matrices. calibrationRuns is the size of one calibration set, the same
// ten seeds an acceptance driver uses.
const (
	fullRounds      = 6
	warmupOps       = 2
	smokeWindow     = 200 * time.Millisecond
	calibrationRuns = 10
)

func main() {
	// Workers of tcp_dg2d_p4 are re-execs of this binary.
	distrun.MaybeWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func allWorkloads() []workload {
	return []workload{&warm{}, &cold{}, &pexsiBatch{}, &tcpLaunch{}, &serve{}}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload reports; in single-workload mode it is the
// last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	name := fs.String("workload", "", "workload to run (default: all, rounds interleaved)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the matrix values and shift sequences (1 development, 2 held out)")
	fs.Float64Var(&cfg.seconds, "seconds", 18, "timed seconds per workload, split over the rounds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the count and traced passes")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny matrices, one round, 0.2 s windows: for tests")
	fs.BoolVar(&cfg.injectFault, "inject-fault", false, "perturb one reference entry: the run must report a failed op")
	fs.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for trace-*.json and layers-*.json")
	calibrate := fs.Int("calibrate", 0, "run N back-to-back sets of every workload and print the drift table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: need -seconds > 0 and no positional arguments")
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	dense.SetWorkers(0) // re-size the kernel pool to the GOMAXPROCS just set

	if *calibrate > 0 {
		if err := calibrateSets(*calibrate, cfg, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		return 0
	}

	ws := allWorkloads()
	if *name != "" {
		ws = nil
		for _, w := range allWorkloads() {
			if w.name() == *name {
				ws = []workload{w}
			}
		}
		if ws == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
	}
	results, err := measure(ws, cfg, *name == "" || *trace == 1, *name == "" || *trace == 0, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	code := 0
	for _, r := range results {
		if !r.Correct {
			code = 1
		}
	}
	enc := json.NewEncoder(stdout)
	if *name != "" {
		// One workload: the contract's single result line.
		if err := enc.Encode(results[0]); err != nil {
			return 2
		}
		return code
	}
	printTable(stdout, ws, results)
	byName := map[string]result{}
	for i, w := range ws {
		byName[w.name()] = results[i]
	}
	if err := enc.Encode(byName); err != nil {
		return 2
	}
	return code
}

// measure runs the protocol over ws: every workload gets cfg.rounds()
// interleaved visits, then its count pass and, with layered, its traced pass.
// A result carries the end-to-end metrics, the per-layer metrics, or both
// (the all-workloads mode).
func measure(ws []workload, cfg config, layered, endToEnd bool, log io.Writer) ([]result, error) {
	for _, w := range ws {
		if err := w.prep(cfg); err != nil {
			return nil, fmt.Errorf("%s: preparing inputs: %w", w.name(), err)
		}
	}
	timings := make([]timed, len(ws))
	// Round r visits every workload in order, so a slow minute on the host
	// lands on all of them and not on one workload's block.
	for r := 0; r < cfg.rounds(); r++ {
		for i, w := range ws {
			rs, err := visit(w, cfg)
			if err != nil {
				return nil, err
			}
			timings[i].add(rs)
			fmt.Fprintf(log, "round %d %-16s setup %.3fs  %3d ops  p50 %.2f ms\n",
				r+1, w.name(), rs.setupS, rs.ops(), median(rs.opMS))
		}
	}

	results := make([]result, len(ws))
	for i, w := range ws {
		t := &timings[i]
		res := result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
		counts, err := w.counts()
		res.Attempted++ // the count pass is an op too
		if err != nil {
			res.Failed++
			if t.failure == "" {
				t.failure = err.Error()
			}
		}
		values := t.metrics()
		maps.Copy(values, counts.metrics())
		if layered {
			lm, attempted, failed, err := tracedPass(w, cfg, t, log)
			if err != nil {
				return nil, fmt.Errorf("%s: traced pass: %w", w.name(), err)
			}
			res.Attempted += attempted
			res.Failed += failed
			maps.Copy(values, lm)
			collect(res.Metrics, perLayerDefs, values)
		}
		if endToEnd {
			collect(res.Metrics, endToEndDefs, values)
		}
		res.Correct = res.Failed == 0
		if s := t.stealFrac(); s > 0.02 {
			fmt.Fprintf(log, "%s: the hypervisor stole %.0f%% of the CPU time during the rounds; the timings are disturbed\n", w.name(), 100*s)
		}
		if t.failure != "" {
			fmt.Fprintf(log, "%s: FAILED op: %s\n", w.name(), t.failure)
		}
		results[i] = res
	}
	return results, nil
}

// collect copies the catalog's metrics out of values (0 where a layer did no
// work on this workload) with their units.
func collect(dst map[string]metricValue, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		dst[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
}

// tracedPass runs after the untraced windows: traced ops for two windows'
// time (at least three ops), then the workload's layer measurements, and
// writes trace-<workload>.json and layers-<workload>.json.
func tracedPass(w workload, cfg config, t *timed, log io.Writer) (lm map[string]float64, attempted, failed int, err error) {
	tr := newTracer()
	budget := 2 * cfg.window()
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < budget; i++ {
		attempted++
		if terr := w.traced(tr, i); terr != nil {
			failed++
			fmt.Fprintf(log, "%s: FAILED traced op %d: %v\n", w.name(), i, terr)
		}
	}
	lm = map[string]float64{}
	for _, d := range perLayerDefs {
		const suffix = "_ms"
		if n := len(d.Name); n > len(suffix) && d.Name[n-len(suffix):] == suffix {
			lm[d.Name] = tr.meanMS(d.Name[:n-len(suffix)])
		}
	}
	extra := map[string]any{}
	if err := w.layers(tr, lm, extra); err != nil {
		return nil, 0, 0, err
	}
	tab := tr.table()
	untraced := t.metrics()["op_ms_p50"]
	lm["driver.ops"] = float64(t.attempted)
	lm["driver.ops_failed"] = float64(t.failed + failed)
	lm["driver.tail_pct"], lm["driver.op_ms_tail"] = t.tail()
	lm["driver.round_spread"] = t.roundSpread()
	lm["driver.trace_overhead_frac"] = tab.OpMS/untraced - 1
	lm["driver.steal_frac"] = t.stealFrac()
	lm["driver.peak_rss_mb"] = peakRSSMB()

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, 0, 0, err
	}
	meta := metadata(cfg)
	meta["workload"] = w.name()
	if err := tr.writeChrome(filepath.Join(cfg.outDir, "trace-"+w.name()+".json"), meta); err != nil {
		return nil, 0, 0, err
	}
	err = writeJSON(filepath.Join(cfg.outDir, "layers-"+w.name()+".json"), map[string]any{
		"meta": meta, "untraced_op_ms_p50": untraced, "table": tab, "metrics": lm, "extra": extra,
	})
	return lm, attempted, failed, err
}

// metadata is recorded in every output file.
func metadata(cfg config) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": commit, "seed": cfg.seed, "seconds": cfg.seconds, "rounds": cfg.rounds(),
		"warmup_ops": warmupOps, "smoke": cfg.smoke, "time": time.Now().UTC().Format(time.RFC3339),
	}
}

func printTable(out io.Writer, ws []workload, results []result) {
	for i, w := range ws {
		r := results[i]
		fmt.Fprintf(out, "\n%s  correct=%v attempted=%d failed=%d\n", w.name(), r.Correct, r.Attempted, r.Failed)
		for _, d := range append(endToEndDefs[:len(endToEndDefs):len(endToEndDefs)], perLayerDefs...) {
			if m, ok := r.Metrics[d.Name]; ok {
				fmt.Fprintf(out, "  %-28s %14.6g %s\n", d.Name, m.Value, m.Unit)
			}
		}
	}
	fmt.Fprintln(out)
}
