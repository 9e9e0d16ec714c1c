package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"pselinv"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/obs"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	engine "pselinv/internal/pselinv"
	"pselinv/internal/simmpi"
	"pselinv/internal/sparse"
	"pselinv/internal/tcptransport"
)

// The analysis options every workload uses: nested dissection, as pselinvd
// does, and otherwise the library defaults. The traced pass calls the layers
// directly, so it has to spell out what pselinv.Options.withDefaults and
// Symbolic.engineTemplate fill in (they are unexported and this benchmark
// may not edit the program). checkDecomposition fails the traced pass when
// the library's own analysis and plan stop agreeing with these.
const (
	relax    = 4
	maxWidth = 48
	planSeed = 1
	scheme   = core.ShiftedBinaryTree
)

var libOptions = pselinv.Options{Ordering: pselinv.OrderNestedDissection}

const runTimeout = 2 * time.Minute

// tracedAnalyze is pselinv.AnalyzePattern decomposed into its layer calls.
func tracedAnalyze(tr *tracer, a *sparse.CSC, geom *sparse.Geometry) *etree.Analysis {
	var perm []int
	var pa *sparse.CSC
	var an *etree.Analysis
	tr.do("sparse.symmetry_check", func() { a.IsStructurallySymmetric() })
	tr.do("ordering.nd", func() { perm = ordering.Compute(ordering.NestedDissection, a, geom) })
	tr.do("sparse.permute", func() { pa = a.Permute(perm) })
	tr.do("etree.analyze", func() { an = etree.Analyze(pa, perm, etree.Options{Relax: relax, MaxWidth: maxWidth}) })
	tr.do("sparse.fingerprint", func() { a.PatternFingerprint() })
	return an
}

// tracedTemplate is Symbolic.engineTemplate decomposed: plan, then programs.
func tracedTemplate(tr *tracer, an *etree.Analysis, procs int, symmetric bool) *engine.Engine {
	var plan *core.Plan
	var tmpl *engine.Engine
	tr.do("core.plan_build", func() {
		plan = core.NewPlanConfig(an.BP, procgrid.Squarish(procs), core.PlanConfig{
			Scheme: scheme, Seed: planSeed, Symmetric: symmetric,
		})
	})
	tr.do("pselinv.template_build", func() { tmpl = engine.NewEngine(plan, nil) })
	return tmpl
}

// tracedFactorize is Symbolic.Factorize decomposed.
func tracedFactorize(tr *tracer, a *sparse.CSC, an *etree.Analysis) (*factor.LU, error) {
	var pa *sparse.CSC
	var lu *factor.LU
	var err error
	tr.do("sparse.fingerprint", func() { a.PatternFingerprint() })
	tr.do("sparse.permute", func() { pa = a.Permute(an.PermTotal) })
	tr.do("factor.factorize", func() { lu, err = factor.Factorize(pa, an.BP) })
	tr.do("sparse.symmetry_check", func() { a.IsSymmetric(1e-14) })
	return lu, err
}

// tracedRun is ParallelSelInv + Diagonal + Release decomposed.
func tracedRun(tr *tracer, tmpl *engine.Engine, lu *factor.LU, an *etree.Analysis) ([]float64, error) {
	var res *engine.RunResult
	var err error
	tr.do("pselinv.run", func() { res, err = tmpl.Rebind(lu).Run(runTimeout) })
	if err != nil {
		return nil, err
	}
	d := make([]float64, len(an.PermTotal))
	tr.do("pselinv.extract", func() {
		for i, p := range an.PermTotal {
			d[i] = res.Ainv.At(p, p)
		}
	})
	tr.do("pselinv.release", res.Release)
	return d, nil
}

// checkDecomposition compares the traced pass's direct layer calls with what
// the library built for the same matrix: supernode partition and fill (pin
// the ordering and the relax/maxWidth defaults) and the plan's heaviest
// Col-Bcast sender against the bytes the library's run counted there (pin
// grid, scheme, seed and balancer: the trees decide who forwards what).
func checkDecomposition(an *etree.Analysis, plan *core.Plan, elem dense.Elem, sys *pselinv.System, c opCounts) error {
	if got, want := an.BP.NumSnodes(), sys.NumSupernodes(); got != want {
		return fmt.Errorf("traced analysis has %d supernodes, the library's %d: layers.go no longer follows the library's defaults", got, want)
	}
	if got, want := an.BP.NNZScalars(), sys.FactorNNZ(); got != want {
		return fmt.Errorf("traced analysis has factor nnz %d, the library's %d: layers.go no longer follows the library's defaults", got, want)
	}
	planned := slices.Max(plan.PerRankSent(core.OpColBcast))
	if elem == dense.Complex {
		planned *= 2
	}
	if planned != c.colBcastMaxSent {
		return fmt.Errorf("traced plan's heaviest Col-Bcast sender sends %d bytes, the library's run counted %d: layers.go no longer builds the library's plan", planned, c.colBcastMaxSent)
	}
	return nil
}

// observedRun is one fully observed parallel selected inversion through the
// library: the obs report the program exposes (decoded from its JSON), the
// count metrics read out of it, and the run's wall and report size.
type observedRun struct {
	rep       *obs.Report
	counts    opCounts
	elapsed   time.Duration
	jsonBytes int
}

// observe runs sys once under ParallelSelInvObserved — the count pass of the
// in-process workloads — and checks the paper's two volumes and the max sent
// volume in the report against the ParallelResult accessors of the same call.
func observe(sys *pselinv.System, procs int) (*observedRun, error) {
	res, _, orep, err := sys.ParallelSelInvObserved(procs, scheme, planSeed)
	if err != nil {
		return nil, err
	}
	defer res.Release()
	js, err := orep.JSON()
	if err != nil {
		return nil, err
	}
	rep := &obs.Report{}
	if err := json.Unmarshal(js, rep); err != nil {
		return nil, fmt.Errorf("decoding the obs report: %w", err)
	}
	c := opCounts{totalBytes: rep.TotalBytes, msgs: rep.TotalMsgs}
	for _, r := range rep.Ranks {
		c.maxSentBytes = max(c.maxSentBytes, r.SentBytes)
	}
	if cr := rep.Class(simmpi.ClassColBcast.String()); cr != nil {
		c.colBcastMaxSent, c.msgsColBcast = slices.Max(cr.SentBytes), cr.Msgs
	}
	if cr := rep.Class(simmpi.ClassRowReduce.String()); cr != nil {
		c.rowReduceMaxRecv, c.msgsRowReduce = slices.Max(cr.RecvBytes), cr.Msgs
	}
	if rep.Load != nil {
		c.flopImbalance, c.nnzImbalance = rep.Load.FlopImbalance, rep.Load.NNZImbalance
	}
	for _, v := range []struct {
		what   string
		bytes  int64
		wantMB float64
	}{
		{"Col-Bcast max sent", c.colBcastMaxSent, slices.Max(res.ColBcastSentMB())},
		{"Row-Reduce max received", c.rowReduceMaxRecv, slices.Max(res.RowReduceRecvMB())},
		{"max sent", c.maxSentBytes, res.MaxSentMB()},
	} {
		if got := float64(v.bytes) / 1e6; got != v.wantMB {
			return nil, fmt.Errorf("count pass: %s is %v MB in the obs report, %v MB from ParallelResult", v.what, got, v.wantMB)
		}
	}
	return &observedRun{rep: rep, counts: c, elapsed: res.Elapsed, jsonBytes: len(js)}, nil
}

// observedCounts is the count pass of an in-process workload.
func observedCounts(sys *pselinv.System, procs int) (opCounts, error) {
	o, err := observe(sys, procs)
	if err != nil {
		return opCounts{}, err
	}
	return o.counts, nil
}

// invertDiagonal is the tail every library op shares: ParallelSelInv →
// Diagonal → Release.
func invertDiagonal(sys *pselinv.System, procs int) ([]float64, error) {
	res, err := sys.ParallelSelInv(procs, scheme, planSeed)
	if err != nil {
		return nil, err
	}
	d := res.Diagonal()
	res.Release()
	return d, nil
}

// engineSplit turns an obs report's straggler, dag and queue sections into
// the pselinv.*, simmpi.* and obs.* layer metrics. measuredRunMS is the
// unobserved engine wall the overhead ratio compares against.
func engineSplit(rep *obs.Report, elapsed time.Duration, jsonBytes int, measuredRunMS float64, lm map[string]float64) {
	if s := rep.Straggler; s != nil {
		var wall, busy, sw, rw, idle int64
		for _, r := range s.Ranks {
			wall += r.WallNS
			busy += r.BusyNS
			sw += r.SendWaitNS
			rw += r.RecvWaitNS
			idle += r.IdleNS
		}
		if wall > 0 {
			lm["pselinv.busy_frac"] = float64(busy) / float64(wall)
			lm["pselinv.send_wait_frac"] = float64(sw) / float64(wall)
			lm["pselinv.recv_wait_frac"] = float64(rw) / float64(wall)
			lm["pselinv.idle_frac"] = float64(idle) / float64(wall)
		}
		lm["pselinv.straggler_max_ratio"] = s.MaxRatio
	}
	if len(rep.Dag) > 0 {
		occ := 0.0
		for _, d := range rep.Dag {
			occ += d.Occupancy
		}
		lm["pselinv.dag_occupancy"] = occ / float64(len(rep.Dag))
	}
	lm["simmpi.queue_hwm_max"] = float64(rep.MaxQueueHWM())
	lm["simmpi.recv_wait_ms"] = ms(rep.TotalRecvWait())
	lm["obs.observed_run_ms"] = ms(elapsed)
	if measuredRunMS > 0 {
		lm["obs.overhead_ratio"] = ms(elapsed) / measuredRunMS
	}
	lm["obs.report_json_kb"] = float64(jsonBytes) / 1024
}

// structureMetrics are the etree/ordering/core counts of one analysis+plan.
func structureMetrics(a *sparse.CSC, an *etree.Analysis, plan *core.Plan, c opCounts, lm map[string]float64) {
	lm["ordering.fill_ratio"] = float64(2*an.BP.NNZScalars()) / float64(a.NNZ())
	lm["etree.snodes"] = float64(an.BP.NumSnodes())
	lm["etree.factor_nnz"] = float64(an.BP.NNZScalars())
	depth := 0
	note := func(op *core.CollOp) {
		if op != nil {
			depth = max(depth, op.Tree.Depth())
		}
	}
	for _, sp := range plan.Snodes {
		note(sp.DiagBcast)
		note(sp.DiagReduce)
		note(sp.DiagBcastRow)
		for _, ops := range [][]core.CollOp{sp.ColBcasts, sp.RowReduces, sp.RowBcasts, sp.ColReduces} {
			for i := range ops {
				note(&ops[i])
			}
		}
	}
	lm["core.tree_depth_max"] = float64(depth)
	lm["core.plan_msgs"] = float64(c.msgs)
	lm["core.nnz_imbalance"] = c.nnzImbalance
	lm["simmpi.msgs_colbcast"] = float64(c.msgsColBcast)
	lm["simmpi.msgs_rowreduce"] = float64(c.msgsRowReduce)
}

// netsimMetrics puts the simulator's predicted makespan next to a measured
// parallel-section wall for the same matrix, grid and scheme.
func netsimMetrics(sys *pselinv.System, procs int, measuredMS float64, lm map[string]float64) {
	t0 := time.Now()
	pred := sys.SimulateTiming(procs, scheme, pselinv.SimParams{})
	lm["netsim.simulate_ms"] = ms(time.Since(t0))
	lm["netsim.pred_makespan_ms"] = pred.Seconds * 1e3
	if measuredMS > 0 {
		lm["netsim.pred_over_measured"] = pred.Seconds * 1e3 / measuredMS
	}
}

// --- ROADMAP 1(a): kernel rates at the shapes the engine issues -----------

// kernelShape is one GEMM shape (m×k · k×n) or TRSM shape (an m×n block
// solved against n×n; k is 0) with the calls and flops the plan issues there.
type kernelShape struct {
	M     int   `json:"m"`
	N     int   `json:"n"`
	K     int   `json:"k"`
	Calls int64 `json:"calls"`
	Flops int64 `json:"flops"` // counted as real-element flops, all calls
}

// engineShapes walks the block pattern the way the engine's second pass
// does and tallies every GEMM and TRSM it issues by shape. The symmetric
// path runs A⁻¹_{J,I}·L̂_{I,K} (w_J×w_I · w_I×w_K) per structure pair and the
// diagonal update L̂_{J,K}ᵀ·A⁻¹_{J,K}; the general path adds the mirrored
// upper-triangle products and solves.
func engineShapes(bp *etree.BlockPattern, symmetric bool) (gemm, trsm []kernelShape) {
	g := map[[3]int]*kernelShape{}
	t := map[[3]int]*kernelShape{}
	add := func(m map[[3]int]*kernelShape, mm, nn, kk int, flops int64) {
		key := [3]int{mm, nn, kk}
		s := m[key]
		if s == nil {
			s = &kernelShape{M: mm, N: nn, K: kk}
			m[key] = s
		}
		s.Calls++
		s.Flops += flops
	}
	for k := 0; k < bp.NumSnodes(); k++ {
		w := bp.Part.Width(k)
		c := bp.Struct(k)
		for _, i := range c {
			wi := bp.Part.Width(i)
			add(t, wi, w, 0, dense.TrsmFlops(w, wi))
			if !symmetric {
				add(t, w, wi, 0, dense.TrsmFlops(w, wi))
			}
		}
		for _, j := range c {
			wj := bp.Part.Width(j)
			add(g, w, w, wj, dense.GemmFlops(w, w, wj))
			for _, i := range c {
				wi := bp.Part.Width(i)
				add(g, wj, w, wi, dense.GemmFlops(wj, w, wi))
				if !symmetric {
					add(g, w, wj, wi, dense.GemmFlops(w, wj, wi))
				}
			}
		}
	}
	flat := func(m map[[3]int]*kernelShape) []kernelShape {
		out := make([]kernelShape, 0, len(m))
		for _, s := range m {
			out = append(out, *s)
		}
		sort.Slice(out, func(a, b int) bool {
			if out[a].Flops != out[b].Flops {
				return out[a].Flops > out[b].Flops
			}
			return fmt.Sprint(out[a].M, out[a].N, out[a].K) < fmt.Sprint(out[b].M, out[b].N, out[b].K)
		})
		return out
	}
	return flat(g), flat(t)
}

// weightedMedian returns the value of f at which half of the flops lie below.
func weightedMedian(shapes []kernelShape, f func(kernelShape) int) (int, kernelShape) {
	s := append([]kernelShape(nil), shapes...)
	sort.Slice(s, func(a, b int) bool { return f(s[a]) < f(s[b]) })
	var total, run int64
	for _, x := range s {
		total += x.Flops
	}
	for _, x := range s {
		run += x.Flops
		if 2*run >= total {
			return f(x), x
		}
	}
	return 0, kernelShape{}
}

// probeShapes are the three heaviest shapes and the flop-weighted median
// shape (by volume), without duplicates.
func probeShapes(shapes []kernelShape) []kernelShape {
	var out []kernelShape
	seen := map[[3]int]bool{}
	add := func(s kernelShape) {
		key := [3]int{s.M, s.N, s.K}
		if s.Calls > 0 && !seen[key] {
			seen[key] = true
			out = append(out, s)
		}
	}
	for i := 0; i < len(shapes) && i < 3; i++ {
		add(shapes[i])
	}
	_, med := weightedMedian(shapes, func(s kernelShape) int { return s.M * s.N * max(s.K, 1) })
	add(med)
	return out
}

func filled(rows, cols int, elem dense.Elem, scale float64) *dense.Matrix {
	m := dense.NewMatrixElem(rows, cols, elem)
	for i := range m.Data {
		m.Data[i] = scale * float64(i%7+1)
	}
	return m
}

const kernelProbe = 15 * time.Millisecond

// timeKernel repeats f for at least kernelProbe and returns calls per second.
func timeKernel(f func()) float64 {
	f() // first call pays arena warm-up
	n := 0
	t0 := time.Now()
	for time.Since(t0) < kernelProbe || n < 3 {
		f()
		n++
	}
	return float64(n) / time.Since(t0).Seconds()
}

// gemmRate is GFLOP/s (real-arithmetic flops) of dense.Gemm at one shape.
func gemmRate(s kernelShape, elem dense.Elem) float64 {
	a, b, c := filled(s.M, s.K, elem, 1e-3), filled(s.K, s.N, elem, 1e-3), filled(s.M, s.N, elem, 0)
	flops := float64(dense.GemmFlops(s.M, s.N, s.K))
	if elem == dense.Complex {
		flops *= 4
	}
	// beta = 0 keeps c bounded over any number of repeats.
	return flops * timeKernel(func() { dense.Gemm(dense.NoTrans, dense.NoTrans, 1, a, b, 0, c) }) / 1e9
}

// trsmRate is GFLOP/s of the engine's right-lower-unit solve at one shape.
func trsmRate(s kernelShape, elem dense.Elem) float64 {
	t := filled(s.N, s.N, elem, 1e-3)
	src := filled(s.M, s.N, elem, 1e-2)
	x := dense.NewMatrixElem(s.M, s.N, elem)
	flops := float64(dense.TrsmFlops(s.N, s.M))
	if elem == dense.Complex {
		flops *= 4
	}
	return flops * timeKernel(func() {
		copy(x.Data, src.Data)
		dense.Trsm(dense.Right, dense.Lower, dense.NoTrans, dense.Unit, t, x)
	}) / 1e9
}

// denseMetrics derives the flop-weighted shape histogram of a plan's block
// sizes, times the kernels at the probe shapes with the plan's element type,
// and emits the dense.* metrics. No 512³ anywhere: the engine never calls it.
func denseMetrics(bp *etree.BlockPattern, symmetric bool, elem dense.Elem, lm map[string]float64, extra map[string]any) {
	gemm, trsm := engineShapes(bp, symmetric)
	type probe struct {
		kernelShape
		GFlops float64 `json:"gflop_per_s"`
	}
	// rate is the flop-weighted harmonic mean over the probed shapes: the
	// rate the engine would see if all its flops ran at these shapes in
	// these proportions.
	rate := func(shapes []kernelShape, f func(kernelShape, dense.Elem) float64) (float64, []probe) {
		var flops, secs float64
		var ps []probe
		for _, s := range probeShapes(shapes) {
			r := f(s, elem)
			ps = append(ps, probe{s, r})
			flops += float64(s.Flops)
			secs += float64(s.Flops) / r
		}
		if secs == 0 {
			return 0, ps
		}
		return flops / secs, ps
	}
	gr, gp := rate(gemm, gemmRate)
	tr, tp := rate(trsm, trsmRate)
	if elem == dense.Complex {
		lm["dense.zgemm_gflops_engine"] = gr
	} else {
		lm["dense.gemm_gflops_engine"] = gr
	}
	lm["dense.trsm_gflops_engine"] = tr
	mp50, _ := weightedMedian(gemm, func(s kernelShape) int { return s.M })
	kp50, _ := weightedMedian(gemm, func(s kernelShape) int { return s.K })
	lm["dense.shape_m_p50"] = float64(mp50)
	lm["dense.shape_k_p50"] = float64(kp50)
	var small, total int64
	for _, s := range gemm {
		total += s.Flops
		if s.M*s.N*s.K < 32*32*32 { // below dense's blocked/4M crossover
			small += s.Flops
		}
	}
	if total > 0 {
		lm["dense.flops_small_frac"] = float64(small) / float64(total)
	}
	top := func(s []kernelShape) []kernelShape { return s[:min(len(s), 12)] }
	extra["gemm_shape_histogram"] = map[string]any{
		"element":     map[dense.Elem]string{dense.Real: "real", dense.Complex: "complex"}[elem],
		"note":        "flop-weighted; shapes are m,n,k of C(m×n) += A(m×k)·B(k×n); TRSM solves an m×n block against n×n",
		"gemm_shapes": len(gemm), "gemm_top": top(gemm), "gemm_probes": gp,
		"trsm_shapes": len(trsm), "trsm_top": top(trsm), "trsm_probes": tp,
	}
}

// --- transport micro-measurements ---------------------------------------

// simmpiSendRecvNS is the cost of one send plus its matching receive on the
// in-process transport, with a payload the size of a 48×48 block.
func simmpiSendRecvNS() (float64, error) {
	const n = 2000
	payload := make([]float64, maxWidth*maxWidth)
	w := simmpi.NewWorld(2)
	defer w.Close()
	t0 := time.Now()
	err := w.Run(runTimeout, func(r *simmpi.Rank) {
		for i := 0; i < n; i++ {
			if r.ID == 0 {
				r.Send(1, uint64(i), simmpi.ClassOther, payload)
				r.Recv()
			} else {
				r.Recv()
				r.Send(0, uint64(i), simmpi.ClassOther, payload)
			}
		}
	})
	return float64(time.Since(t0).Nanoseconds()) / (2 * n), err
}

// tcpMetrics builds a two-rank loopback mesh inside this process and
// measures the handshake, a small-message round trip and a bulk stream.
func tcpMetrics(lm map[string]float64) error {
	ls := make([]*tcptransport.Listener, 2)
	addrs := make([]string, 2)
	for i := range ls {
		l, err := tcptransport.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		ls[i], addrs[i] = l, l.Addr()
	}
	trs := make([]*tcptransport.Transport, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range ls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trs[i], errs[i] = ls[i].Connect(tcptransport.Config{Rank: i, Addrs: addrs})
		}(i)
	}
	wg.Wait()
	lm["tcptransport.handshake_ms"] = ms(time.Since(t0))
	for i, err := range errs {
		if err != nil {
			ls[i].Close()
			if trs[1-i] != nil {
				trs[1-i].Close()
			}
			return err
		}
	}
	worlds := []*simmpi.World{simmpi.NewWorldOn(trs[0]), simmpi.NewWorldOn(trs[1])}
	defer worlds[0].Close()
	defer worlds[1].Close()

	const pings, blocks, blockLen = 2000, 200, 64 * 1024 / 8
	small := make([]float64, 1)
	bulk := make([]float64, blockLen)
	var pingDur, streamDur time.Duration
	for i := range worlds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = worlds[i].Run(runTimeout, func(r *simmpi.Rank) {
				peer := 1 - r.ID
				t := time.Now()
				for k := 0; k < pings; k++ {
					if r.ID == 0 {
						r.Send(peer, uint64(k), simmpi.ClassOther, small)
						r.Recv()
					} else {
						r.Recv()
						r.Send(peer, uint64(k), simmpi.ClassOther, small)
					}
				}
				if r.ID == 0 {
					pingDur = time.Since(t)
				}
				r.Barrier()
				t = time.Now()
				if r.ID == 0 {
					for k := 0; k < blocks; k++ {
						r.Send(peer, uint64(k), simmpi.ClassOther, bulk)
					}
					r.Recv() // the receiver's acknowledgement
					streamDur = time.Since(t)
				} else {
					for k := 0; k < blocks; k++ {
						r.Recv()
					}
					r.Send(peer, 0, simmpi.ClassOther, small)
				}
				r.Barrier()
			})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	lm["tcptransport.pingpong_us"] = float64(pingDur.Microseconds()) / pings
	lm["tcptransport.stream_mb_s"] = float64(blocks*blockLen*8) / 1e6 / streamDur.Seconds()
	return nil
}
