package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"time"
)

// calibrateSets measures the benchmark's own noise the way an acceptance
// driver would: a set is calibrationRuns fresh-process runs of every workload,
// each with another seed; per workload × end-to-end metric it reports every set's
// median, the spread inside a set (interquartile range over median) and the
// largest drift between any two sets' medians, next to the metric's bound.
func calibrateSets(sets int, cfg config, out, log io.Writer) error {
	const runs = calibrationRuns
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	medians := map[key][]float64{}
	spreads := map[key][]float64{}
	started := make([]time.Time, sets)
	for s := 0; s < sets; s++ {
		started[s] = time.Now()
		for _, w := range allWorkloads() {
			values := map[string][]float64{}
			for seed := 1; seed <= runs; seed++ {
				cmd := exec.Command(exe, "--workload", w.name(), "--seed", fmt.Sprint(seed),
					"--seconds", fmt.Sprint(cfg.seconds), "--trace", "0")
				cmd.Stderr = io.Discard
				stdout, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("set %d %s seed %d: %w", s+1, w.name(), seed, err)
				}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				var r result
				if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
					return fmt.Errorf("set %d %s seed %d: result line: %w", s+1, w.name(), seed, err)
				}
				if !r.Correct {
					return fmt.Errorf("set %d %s seed %d: %d of %d ops failed", s+1, w.name(), seed, r.Failed, r.Attempted)
				}
				for name, m := range r.Metrics {
					values[name] = append(values[name], m.Value)
				}
				fmt.Fprintf(log, "set %d %s seed %d done\n", s+1, w.name(), seed)
			}
			for name, xs := range values {
				k := key{w.name(), name}
				sort.Float64s(xs)
				med := quantileSorted(xs, 0.5)
				medians[k] = append(medians[k], med)
				spreads[k] = append(spreads[k], iqr(xs)/med)
			}
		}
	}

	fmt.Fprintf(out, "%d sets x %d runs (seeds 1..%d) x %g s; sets started at", sets, runs, runs, cfg.seconds)
	for _, t := range started {
		fmt.Fprintf(out, " %s", t.UTC().Format("15:04:05"))
	}
	fmt.Fprintf(out, " UTC; nproc=%d\n\n", metadata(cfg)["nproc"])
	fmt.Fprintln(out, "| workload | metric | set medians | max spread in a set | max drift between sets | bound | ok |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|")
	worst := 0.0
	for _, w := range allWorkloads() {
		for _, d := range endToEndDefs {
			k := key{w.name(), d.Name}
			drift := 0.0
			for i, a := range medians[k] {
				for _, b := range medians[k][i+1:] {
					drift = math.Max(drift, math.Abs(b-a)/a)
				}
			}
			spread := 0.0
			for _, s := range spreads[k] {
				spread = math.Max(spread, s)
			}
			// A metric is steady when its drift stays within half its bound
			// and its in-set spread within the bound (setup_s: drift only).
			b := bounds[d.Name]
			ok := drift <= b/2 && (d.Name == "setup_s" || spread <= b)
			if b > 0 {
				worst = math.Max(worst, drift/b)
			}
			fmt.Fprintf(out, "| %s | %s | %s | %.2f%% | %.2f%% | %.0f%% | %v |\n",
				w.name(), d.Name, fmtList(medians[k]), 100*spread, 100*drift, 100*b, ok)
		}
	}
	fmt.Fprintf(out, "\nworst drift/bound over all rows: %.2f\n", worst)
	return nil
}

// iqr is the distance between the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (exclusive method).
func iqr(sorted []float64) float64 {
	q := func(p float64) float64 {
		pos := p*float64(len(sorted)+1) - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			return sorted[0]
		}
		if lo >= len(sorted)-1 {
			return sorted[len(sorted)-1]
		}
		return sorted[lo] + (sorted[lo+1]-sorted[lo])*(pos-float64(lo))
	}
	return q(0.75) - q(0.25)
}

func fmtList(xs []float64) string {
	var b bytes.Buffer
	for i, x := range xs {
		if i > 0 {
			b.WriteString(" / ")
		}
		fmt.Fprintf(&b, "%.5g", x)
	}
	return b.String()
}

// readBounds loads the end-to-end bounds from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
