package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"pselinv"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/distrun"
	"pselinv/internal/exp"
	"pselinv/internal/simmpi"
	"pselinv/internal/sparse"
)

// tcpLaunch runs the warm workload's matrix as four real processes on a 2×2
// grid over loopback TCP: every op is one distrun.Launch of a pre-staged
// spec. Workers are re-execs of the benchmark binary (distrun.MaybeWorker
// runs first in main).
type tcpLaunch struct {
	nx, dofs int
	seed     int64
	// want holds, per class, the per-rank sent and received byte vectors of
	// the in-process run of the same plan.
	wantSent, wantRecv [][]int64
	// pipe and plan are that in-process build: the structure the layer
	// metrics describe.
	pipe *exp.Pipeline
	plan *core.Plan

	dir      string
	spec     distrun.Spec
	specPath string
}

func (w *tcpLaunch) name() string { return "tcp_dg2d_p4" }
func (w *tcpLaunch) clients() int { return 1 }

func (w *tcpLaunch) prep(cfg config) error {
	w.nx, w.dofs, w.seed = 24, 4, cfg.seed
	if cfg.smoke {
		w.nx, w.dofs = 6, 2
	}
	// The in-process run of the same spec gives the byte vectors every
	// launch must reproduce.
	if err := w.setup(); err != nil {
		return err
	}
	defer w.teardown()
	pipe, plan, eng, err := w.spec.Build()
	if err != nil {
		return err
	}
	w.pipe, w.plan = pipe, plan
	res, err := eng.Run(runTimeout)
	if err != nil {
		return err
	}
	defer res.Release()
	for _, c := range simmpi.Classes() {
		w.wantSent = append(w.wantSent, res.World.VolumeVector(c, true))
		w.wantRecv = append(w.wantRecv, res.World.VolumeVector(c, false))
	}
	if cfg.injectFault {
		w.wantSent[simmpi.ClassColBcast][0]++
	}
	return nil
}

// setup generates the matrix and stages it with its spec on disk.
func (w *tcpLaunch) setup() error {
	dir, err := os.MkdirTemp("", "bench-tcp-")
	if err != nil {
		return err
	}
	w.dir = dir
	spec, err := distrun.StageMatrix(dir, sparse.DG2D(w.nx, w.nx, w.dofs, w.seed))
	if err != nil {
		return err
	}
	spec.Relax, spec.MaxWidth = relax, maxWidth
	spec.PR, spec.PC, spec.Scheme, spec.Seed = 2, 2, scheme, planSeed
	spec.TimeoutSec = runTimeout.Seconds()
	w.spec = spec
	w.specPath, err = distrun.WriteSpec(dir, &w.spec)
	return err
}

func (w *tcpLaunch) teardown() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

func (w *tcpLaunch) op(_, _ int) (any, error) {
	return distrun.Launch(w.specPath, &w.spec, nil)
}

// check: Launch already verified conservation across the processes; the
// per-class byte vectors must also equal the in-process run's.
func (w *tcpLaunch) check(_ int, out any) error {
	o := out.(*distrun.Outcome)
	for i, c := range simmpi.Classes() {
		if got := o.SentBytes(c); !slices.Equal(got, w.wantSent[i]) {
			return fmt.Errorf("%v sent bytes per rank %v over TCP, %v in process", c, got, w.wantSent[i])
		}
		if got := o.RecvBytes(c); !slices.Equal(got, w.wantRecv[i]) {
			return fmt.Errorf("%v received bytes per rank %v over TCP, %v in process", c, got, w.wantRecv[i])
		}
	}
	return nil
}

func (w *tcpLaunch) counts() (opCounts, error) {
	if err := w.setup(); err != nil {
		return opCounts{}, err
	}
	defer w.teardown()
	out, err := w.op(0, 0)
	if err != nil {
		return opCounts{}, err
	}
	if err := w.check(0, out); err != nil {
		return opCounts{}, err
	}
	o := out.(*distrun.Outcome)
	var c opCounts
	c.flopImbalance, c.nnzImbalance = core.LoadImbalance(w.plan.RankLoads())
	for r, res := range o.Results {
		c.totalBytes += o.TotalSent(r)
		c.maxSentBytes = max(c.maxSentBytes, o.TotalSent(r))
		for _, n := range res.SentMsgs {
			c.msgs += n
		}
		c.msgsColBcast += res.SentMsgs[simmpi.ClassColBcast]
		c.msgsRowReduce += res.SentMsgs[simmpi.ClassRowReduce]
	}
	c.colBcastMaxSent = slices.Max(o.SentBytes(simmpi.ClassColBcast))
	c.rowReduceMaxRecv = slices.Max(o.RecvBytes(simmpi.ClassRowReduce))
	return c, nil
}

func (w *tcpLaunch) traced(tr *tracer, idx int) error {
	var err error
	if w.dir == "" {
		tr.root("setup."+w.name(), -1, func() {
			tr.do("distrun.stage", func() { err = w.setup() })
		})
		if err != nil {
			return err
		}
	}
	tr.root("op."+w.name(), idx, func() {
		id := tr.begin("distrun.launch")
		var out any
		out, err = w.op(0, idx)
		tr.end(id)
		if err != nil {
			return
		}
		// The slowest worker's engine wall, as its result line reports it:
		// the engine over the TCP transport. What is left of the launch is
		// distrun's: spawn, per-worker rebuild, address exchange, mesh.
		tr.child(id, "pselinv.tcp_parallel_section", out.(*distrun.Outcome).Elapsed)
		err = w.check(idx, out)
	})
	return err
}

func (w *tcpLaunch) layers(tr *tracer, lm map[string]float64, extra map[string]any) error {
	w.teardown() // the traced pass's staging
	c, err := w.counts()
	if err != nil {
		return err
	}
	launch, section := tr.meanMS("distrun.launch"), tr.meanMS("pselinv.tcp_parallel_section")
	lm["distrun.parallel_section_ms"] = section
	if launch > 0 {
		lm["distrun.mesh_overhead_frac"] = 1 - section/launch
	}

	// One more launch, bracketed by the children's CPU clock.
	if err := w.setup(); err != nil {
		return err
	}
	defer w.teardown()
	cpu0 := childCPU()
	o, err := distrun.Launch(w.specPath, &w.spec, nil)
	if err != nil {
		return err
	}
	lm["distrun.worker_cpu_ms"] = ms(childCPU() - cpu0)
	var retries int64
	for _, r := range o.Results {
		retries += r.DialRetries
	}
	lm["distrun.dial_retries"] = float64(retries)

	// One observed launch supplies the merged straggler split.
	obsSpec := w.spec
	obsSpec.Obs = true
	obsPath, err := distrun.WriteSpec(w.dir, &obsSpec)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if o, err = distrun.Launch(obsPath, &obsSpec, nil); err != nil {
		return err
	}
	merged, err := o.MergeObs()
	if err != nil {
		return err
	}
	rep := merged.Report(scheme.String())
	js, err := rep.JSON()
	if err != nil {
		return err
	}
	engineSplit(rep, o.Elapsed, len(js), section, lm)
	extra["observed_launch_ms"] = ms(time.Since(t0))

	structureMetrics(w.pipe.Gen.A, w.pipe.An, w.plan, c, lm)
	denseMetrics(w.pipe.An.BP, true, dense.Real, lm, extra)
	sys, err := pselinv.NewSystem(pselinv.DG2D(w.nx, w.nx, w.dofs, w.seed), libOptions)
	if err != nil {
		return err
	}
	netsimMetrics(sys, w.spec.P(), section, lm)
	return tcpMetrics(lm)
}
