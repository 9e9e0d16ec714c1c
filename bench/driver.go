package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// config is one invocation's protocol.
type config struct {
	seed    int64
	seconds float64 // timed seconds per workload, split evenly over the rounds
	// smoke shrinks matrices, rounds and windows for `go test`.
	smoke bool
	// injectFault perturbs one reference diagonal entry after prep, so the
	// op that checks against it must be reported as failed (test hook of the
	// benchmark, not of the program).
	injectFault bool
	outDir      string
}

func (c config) rounds() int {
	if c.smoke {
		return 1
	}
	return fullRounds
}

func (c config) window() time.Duration {
	if c.smoke {
		return smokeWindow
	}
	return time.Duration(c.seconds / fullRounds * float64(time.Second))
}

// workload is one closed-loop traffic pattern against the program.
type workload interface {
	name() string
	// clients is the number of concurrent closed-loop callers.
	clients() int
	// prep builds the inputs from the seed and the references the checks
	// compare against. Harness-only work: not part of setup_s.
	prep(cfg config) error
	// setup is everything the program does before the first timed op
	// (generation, staging, cold analysis, server start); the driver adds the
	// warm-up ops and times the whole.
	setup() error
	// op is the timed region. idx is the op's position in its client's
	// sequence and selects the shift/pole variant. The returned value is
	// kept until the clock stops, then handed to check.
	op(client, idx int) (any, error)
	check(idx int, out any) error
	// teardown releases what setup created.
	teardown()
	// counts runs one op of the workload's plan with the program's own
	// counters read afterwards (the count pass).
	counts() (opCounts, error)
	// traced runs one op decomposed into spans at the layer boundaries.
	traced(tr *tracer, idx int) error
	// layers adds the per-layer metrics that are not span means.
	layers(tr *tracer, lm map[string]float64, extra map[string]any) error
}

// opCounts are the exactly-repeating quantities of one op.
type opCounts struct {
	totalBytes, maxSentBytes          int64
	colBcastMaxSent, rowReduceMaxRecv int64
	msgs, msgsColBcast, msgsRowReduce int64
	flopImbalance, nnzImbalance       float64
}

type roundStat struct {
	setupS       float64
	opMS         []float64 // every op's wall time in this round's window
	wallS        float64
	cpuMS        float64
	allocMB      float64
	failed       int
	firstFailure string
	// jiffies the hypervisor stole during the visit, and all jiffies
	stolen, jiffies int64
}

func (r *roundStat) ops() int { return len(r.opMS) }

func rusage(who int) syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF and RUSAGE_CHILDREN.
	_ = syscall.Getrusage(who, &ru)
	return ru
}

func cpuOf(ru syscall.Rusage) time.Duration {
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// childCPU is user+sys of the children this process has reaped.
func childCPU() time.Duration { return cpuOf(rusage(syscall.RUSAGE_CHILDREN)) }

// cpuNow is user+sys of this process plus its reaped children.
func cpuNow() time.Duration { return cpuOf(rusage(syscall.RUSAGE_SELF)) + childCPU() }

func peakRSSMB() float64 {
	return float64(rusage(syscall.RUSAGE_SELF).Maxrss) / 1024 // Linux reports KiB
}

// hostJiffies reads the first line of /proc/stat: the jiffies the hypervisor
// stole from this VM and the jiffies of all states, summed over the CPUs.
// Both are 0 where /proc/stat cannot be read.
func hostJiffies() (steal, total int64) {
	data, _ := os.ReadFile("/proc/stat")
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i == 7 {
			steal = v
		}
		if i < 8 { // guest time is already inside user and nice
			total += v
		}
	}
	return steal, total
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// visit is one round's stop at one workload: a fresh timed set-up including
// the warm-up ops, a GC, then one closed-loop window. Outputs are checked
// only after the window's clock has stopped.
func visit(w workload, cfg config) (roundStat, error) {
	var rs roundStat
	window := cfg.window()
	steal0, jiffies0 := hostJiffies()
	t0 := time.Now()
	if err := w.setup(); err != nil {
		return rs, fmt.Errorf("%s: set-up: %w", w.name(), err)
	}
	defer w.teardown()
	for i := 0; i < warmupOps; i++ {
		if _, err := w.op(0, i); err != nil {
			return rs, fmt.Errorf("%s: warm-up op: %w", w.name(), err)
		}
	}
	rs.setupS = time.Since(t0).Seconds()
	runtime.GC()

	type done struct {
		idx int
		ms  float64
		out any
		err error
	}
	nc := w.clients()
	per := make([][]done, nc)
	alloc0, cpu0 := totalAlloc(), cpuNow()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Since(start) < window; i++ {
				// Clients interleave the variant sequence: client c takes
				// variants c, c+nc, c+2nc, ...
				idx := c + i*nc
				s := time.Now()
				out, err := w.op(c, idx)
				per[c] = append(per[c], done{idx, ms(time.Since(s)), out, err})
			}
		}(c)
	}
	wg.Wait()
	rs.wallS = time.Since(start).Seconds()
	rs.cpuMS = ms(cpuNow() - cpu0)
	rs.allocMB = float64(totalAlloc()-alloc0) / 1e6
	steal1, jiffies1 := hostJiffies()
	rs.stolen, rs.jiffies = steal1-steal0, jiffies1-jiffies0

	for _, ds := range per {
		for _, d := range ds {
			rs.opMS = append(rs.opMS, d.ms)
			err := d.err
			if err == nil {
				err = w.check(d.idx, d.out)
			}
			if err != nil {
				rs.failed++
				if rs.firstFailure == "" {
					rs.firstFailure = err.Error()
				}
			}
		}
	}
	return rs, nil
}

// timed is a workload's end-to-end timing summary over its rounds.
type timed struct {
	rounds    []roundStat
	attempted int
	failed    int
	failure   string
}

func (t *timed) add(rs roundStat) {
	t.rounds = append(t.rounds, rs)
	t.attempted += rs.ops()
	t.failed += rs.failed
	if t.failure == "" {
		t.failure = rs.firstFailure
	}
}

// overRounds is the median over the rounds of a per-round statistic: never a
// one-shot, never a pooled mean.
func (t *timed) overRounds(f func(*roundStat) float64) float64 {
	xs := make([]float64, len(t.rounds))
	for i := range t.rounds {
		xs[i] = f(&t.rounds[i])
	}
	return median(xs)
}

// metrics returns the five timing metrics. All of them divide by the same
// ops over the same windows.
func (t *timed) metrics() map[string]float64 {
	return map[string]float64{
		"setup_s":         t.overRounds(func(r *roundStat) float64 { return r.setupS }),
		"op_ms_p50":       t.overRounds(func(r *roundStat) float64 { return median(r.opMS) }),
		"ops_per_s":       t.overRounds(func(r *roundStat) float64 { return float64(r.ops()) / r.wallS }),
		"cpu_ms_per_op":   t.overRounds(func(r *roundStat) float64 { return r.cpuMS / float64(r.ops()) }),
		"alloc_mb_per_op": t.overRounds(func(r *roundStat) float64 { return r.allocMB / float64(r.ops()) }),
	}
}

// tail is the highest percentile of the pooled op times that still has at
// least ten samples beyond it.
func (t *timed) tail() (pct, valueMS float64) {
	var all []float64
	for _, r := range t.rounds {
		all = append(all, r.opMS...)
	}
	sort.Float64s(all)
	pct = 50
	for _, p := range []float64{75, 90, 95, 99, 99.9} {
		if float64(len(all))*(1-p/100) >= 10 {
			pct = p
		}
	}
	return pct, quantileSorted(all, pct/100)
}

// stealFrac is the share of the host's CPU time over the rounds that the
// hypervisor gave to other guests: above a few percent, the timings measure
// the neighbours and not the program.
func (t *timed) stealFrac() float64 {
	var stolen, jiffies int64
	for _, r := range t.rounds {
		stolen += r.stolen
		jiffies += r.jiffies
	}
	if jiffies == 0 {
		return 0
	}
	return float64(stolen) / float64(jiffies)
}

// roundSpread is (max − min) / median of the rounds' median op times.
func (t *timed) roundSpread() float64 {
	xs := make([]float64, len(t.rounds))
	for i, r := range t.rounds {
		xs[i] = median(r.opMS)
	}
	sort.Float64s(xs)
	if m := median(xs); m > 0 {
		return (xs[len(xs)-1] - xs[0]) / m
	}
	return 0
}

func (c opCounts) metrics() map[string]float64 {
	return map[string]float64{
		"comm_total_mb":         float64(c.totalBytes) / 1e6,
		"comm_max_sent_mb":      float64(c.maxSentBytes) / 1e6,
		"colbcast_max_sent_mb":  float64(c.colBcastMaxSent) / 1e6,
		"rowreduce_max_recv_mb": float64(c.rowReduceMaxRecv) / 1e6,
		"msgs_total":            float64(c.msgs),
		"flop_imbalance":        c.flopImbalance,
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// relDiff is max|a−b| / max|b|: the tolerance the diagonal checks use.
func relDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var num, den float64
	for i := range a {
		num = math.Max(num, math.Abs(a[i]-b[i]))
		den = math.Max(den, math.Abs(b[i]))
	}
	if den == 0 {
		return num
	}
	return num / den
}

const diagTol = 1e-9

func checkDiag(what string, got, ref []float64) error {
	if d := relDiff(got, ref); !(d <= diagTol) {
		return fmt.Errorf("%s differs from the serial reference by %.3g (tolerance %.0g)", what, d, diagTol)
	}
	return nil
}
