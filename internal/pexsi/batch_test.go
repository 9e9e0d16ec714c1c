package pexsi

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/sparse"
)

// sameBits asserts two density vectors are bit-identical — the batch
// engine promises exactly RunComplex's numbers, not merely close ones.
func sameBits(t *testing.T, want, got []float64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: density[%d] differs: %x vs %x (%g vs %g)",
				label, i, math.Float64bits(want[i]), math.Float64bits(got[i]), want[i], got[i])
		}
	}
}

// nearDensity asserts two density vectors agree within the parity
// tolerance: runs on different process counts fold their reductions in a
// different bracketing, so they agree to rounding, not to the bit.
func nearDensity(t *testing.T, want, got []float64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if d := math.Abs(want[i] - got[i]); !(d <= 1e-9) {
			t.Fatalf("%s: density[%d] off by %g (%g vs %g)", label, i, d, want[i], got[i])
		}
	}
}

func TestBatchMatchesRunComplexSerial(t *testing.T) {
	h := sparse.Grid2D(10, 10, 3)
	poles := mustPoles(t, 6, 2.0, 50.0)
	single, err := RunComplex(h, ComplexConfig{Poles: poles, Relax: 4, MaxWidth: 24})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := RunBatch(h, BatchConfig{Poles: poles, Relax: 4, MaxWidth: 24})
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, single.Density, batch.Density, "serial batch vs RunComplex")
	for l := range poles {
		if single.LogDets[l] != batch.Stats[l].LogDet {
			t.Fatalf("pole %d: logdet %v vs %v", l, single.LogDets[l], batch.Stats[l].LogDet)
		}
	}
}

// TestBatchMatchesRunComplexDistributed: on four ranks RunBatch reproduces
// RunComplex bit for bit — one plan, one fold order — whether RunComplex
// takes the poles in turn or runs them as concurrent pole groups, on the
// symmetric plan a symmetric H selects and on the general plan an
// Asymmetrize'd H does, and all agree with the serial batch and the dense
// expansion to rounding.
func TestBatchMatchesRunComplexDistributed(t *testing.T) {
	poles := mustPoles(t, 4, 2.0, 50.0)
	for _, symmetric := range []bool{true, false} {
		h := sparse.Grid2D(8, 8, 5)
		if !symmetric {
			h = sparse.Asymmetrize(h, 9, 0.5)
		}
		pc := core.PlanConfig{Scheme: core.ShiftedBinaryTree, Balancer: core.WorkBalancer, Seed: 7}
		s, err := newPoleSolver(h, 4, 16, 4, pc, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.tmpl.Plan.Symmetric; got != symmetric {
			t.Fatalf("%s: pole solver planned Symmetric=%v", h.Name, got)
		}
		batch, err := RunBatch(h, BatchConfig{
			Poles: poles, Relax: 4, MaxWidth: 16,
			Procs: 4, Scheme: pc.Scheme, Balancer: pc.Balancer, Seed: pc.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, parallel := range []bool{false, true} {
			single, err := RunComplex(h, ComplexConfig{
				Poles: poles, Relax: 4, MaxWidth: 16, Parallel: parallel,
				Procs: 4, Scheme: pc.Scheme, Balancer: pc.Balancer, Seed: pc.Seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, single.Density, batch.Density,
				fmt.Sprintf("%s: distributed batch vs RunComplex (Parallel=%v)", h.Name, parallel))
		}

		// Against the serial reference the four ranks agree to rounding.
		serial, err := RunBatch(h, BatchConfig{Poles: poles, Relax: 4, MaxWidth: 16})
		if err != nil {
			t.Fatal(err)
		}
		nearDensity(t, serial.Density, batch.Density, h.Name+": distributed batch vs serial batch")
		nearDensity(t, denseTruncatedFermi(t, h.A, poles), batch.Density, h.Name+": distributed batch vs dense expansion")
	}
}

// TestBatchDagMatchesSequential: the DAG scheduler must not move a bit of
// the same plan's sequential batch, and both agree with the serial batch.
func TestBatchDagMatchesSequential(t *testing.T) {
	h := sparse.Grid2D(8, 8, 11)
	poles := mustPoles(t, 3, 2.0, 50.0)
	cfg := BatchConfig{
		Poles: poles, Relax: 4, MaxWidth: 16,
		Procs: 4, Scheme: core.BinaryTree, Seed: 3,
	}
	seq, err := RunBatch(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DAG = true
	dag, err := RunBatch(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, seq.Density, dag.Density, "DAG batch vs sequential batch")
	serial, err := RunBatch(h, BatchConfig{Poles: poles, Relax: 4, MaxWidth: 16})
	if err != nil {
		t.Fatal(err)
	}
	nearDensity(t, serial.Density, dag.Density, "DAG batch vs serial batch")
}

// TestBatchAllocFlat pins what a pole of a batch may allocate, with the
// collector running as it does in production. Pole 0 pays for the analysis
// and warms the dense arena. The batch allocates two LUs (being inverted,
// being factorized): the first for pole 0, the second for pole 1, which the
// producer factorizes while pole 0 is inverted — so it usually lands in pole
// 0's reading (2.3–2.7 MB), on a loaded machine in a later pole's. A third
// LU, which a one-slot queue between them made, also lands in pole 0 (3.1
// MB), so this bound does not see it. A pole that allocated
// an LU reads ≈0.43 MB: one LU is 0.35 MB of slab — the lower half of the
// factor layout, all that the symmetric Hamiltonian's factorization
// stores; 0.66 MB with the upper half — and 0.05 MB of headers. So after
// pole 0 at most one pole may read above 0.3 MB, and the others are the
// steady state. There no factorization allocates (the consumer hands each
// spent LU back and the producer refactorizes into it), and the arena keeps
// the L̂/Û copies and result blocks across collections, so a pole costs
// only its inversion's two block matrices — one slice of block pointers
// over the pattern's slots each, the normalized factors' and the result's —
// and headers: 0.033–0.041 MB mean and 0.033 MB minimum, with the race
// detector or without (0.17 mean and 0.16 minimum while they were maps
// sized once, 0.35–0.39 and 0.22 while the maps doubled their way up,
// 0.26–0.35 mean while a collection could empty the arena). The mean and
// the minimum are asserted, not each pole: now and then one pole reads
// 0.07 MB. Both budgets leave about a quarter on top.
func TestBatchAllocFlat(t *testing.T) {
	const luPole = 300 << 10 // a pole that allocated an LU reads ≈0.43 MB
	h := sparse.RandomSym(400, 4, 3)
	poles := mustPoles(t, 8, 2.0, 50.0)
	res, err := RunBatch(h, BatchConfig{Poles: poles, Relax: 4, MaxWidth: 24})
	if err != nil {
		t.Fatal(err)
	}
	var total, min uint64 = 0, math.MaxUint64
	steady, lus := 0, 0
	for l, st := range res.Stats {
		t.Logf("pole %d: %.2f MB allocated", l, float64(st.AllocBytes)/1e6)
		switch {
		case l == 0:
		case st.AllocBytes > luPole:
			lus++
		default:
			steady++
			total += st.AllocBytes
			if st.AllocBytes < min {
				min = st.AllocBytes
			}
		}
	}
	if lus > 1 {
		t.Fatalf("%d poles after the first allocated an LU's worth; the batch allocates at most two LUs — a pole allocates a factorization", lus)
	}
	mean := total / uint64(steady)
	t.Logf("steady state (%d poles): mean %.3f MB, min %.3f MB per pole", steady, float64(mean)/1e6, float64(min)/1e6)
	if mean > 56<<10 {
		t.Errorf("steady-state mean %.3f MB/pole exceeds the 0.057 MB budget — the arena lost its blocks", float64(mean)/1e6)
	}
	if min > 40<<10 {
		t.Errorf("steady-state minimum %.3f MB/pole exceeds the 0.041 MB budget — recycling broke", float64(min)/1e6)
	}
}

// TestBatchMakesTwoLUs holds RunBatch to the two factorizations its pipeline
// needs — one inverted while the next is factorized — by counting its calls of
// factor.New over eight poles. A job queue with a slot lets the producer run a
// pole further ahead, and it makes a third.
func TestBatchMakesTwoLUs(t *testing.T) {
	var made atomic.Int32
	defer func(f func(*etree.BlockPattern, dense.Elem) *factor.LU) { newLU = f }(newLU)
	newLU = func(bp *etree.BlockPattern, elem dense.Elem) *factor.LU {
		made.Add(1)
		return factor.New(bp, elem)
	}
	poles := mustPoles(t, 8, 2.0, 50.0)
	if _, err := RunBatch(sparse.RandomSym(400, 4, 3), BatchConfig{Poles: poles, Relax: 4, MaxWidth: 24}); err != nil {
		t.Fatal(err)
	}
	if n := made.Load(); n != 2 {
		t.Fatalf("a batch of %d poles made %d LUs, want 2", len(poles), n)
	}
}

// TestBatchBeatsIndependentRuns asserts the headline throughput claim:
// sharing the analysis and pipelining factorization with inversion beats
// independent single-pole RunComplex invocations. BENCH_pexsi.json records
// the measured ratio at 16 poles; here, on a 2-vCPU host, it is ≈1.6–2.1x
// (3.7–5.1x while every single run's graph nested dissection kept its sets
// in maps). The batch and its 16 single runs are timed in three
// interleaved rounds and the fastest of each compared: a burst of work from
// another process on the same CPUs (another package's tests under
// `go test ./...`) then slows one measurement, not the comparison — timed
// once each, the two read 0.99x under such a burst and 1.30x under
// `go test ./...`. The first round also pays the process's warm-up (the
// dense arena's first blocks, the heap's growth), which the batch, timed
// first, would otherwise pay alone. The test uses a 1.3x floor so noisy CI
// machines don't flake while still catching a lost pipeline.
func TestBatchBeatsIndependentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	h := sparse.RandomSym(800, 4, 3)
	poles := mustPoles(t, 16, 2.0, 50.0)
	var batch, singles time.Duration
	for round := 0; round < 3; round++ {
		t0 := time.Now()
		if _, err := RunBatch(h, BatchConfig{Poles: poles, Relax: 4, MaxWidth: 24}); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); round == 0 || d < batch {
			batch = d
		}
		t0 = time.Now()
		for _, p := range poles {
			if _, err := RunComplex(h, ComplexConfig{
				Poles: []ComplexPole{p}, Relax: 4, MaxWidth: 24,
			}); err != nil {
				t.Fatal(err)
			}
		}
		if d := time.Since(t0); round == 0 || d < singles {
			singles = d
		}
	}
	ratio := float64(singles) / float64(batch)
	t.Logf("batch=%v singles(16)=%v ratio=%.2f (fastest of three rounds)", batch, singles, ratio)
	if ratio < 1.3 {
		t.Errorf("batch engine only %.2fx faster than independent runs (floor 1.3x)", ratio)
	}
}

// TestBatchHandoffRace drives the LU handoff for the race detector (make
// pexsi-batch): many poles over the batch's three LUs on a four-rank DAG
// engine, so every LU is refactorized several times right after an engine
// read it, and the result must still be RunComplex's, whose sequential loop
// refactorizes one LU for every pole.
func TestBatchHandoffRace(t *testing.T) {
	h := sparse.Grid2D(8, 8, 5)
	poles := mustPoles(t, 12, 2.0, 50.0)
	cfg := BatchConfig{Poles: poles, Relax: 4, MaxWidth: 16, Procs: 4, Scheme: core.ShiftedBinaryTree, DAG: true, Seed: 7}
	batch, err := RunBatch(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	single, err := RunComplex(h, ComplexConfig{
		Poles: poles, Relax: 4, MaxWidth: 16, Procs: 4, Scheme: cfg.Scheme, DAG: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, single.Density, batch.Density, "handoff batch vs RunComplex")
	fresh, err := RunComplex(h, ComplexConfig{
		Poles: poles, Relax: 4, MaxWidth: 16, Procs: 4, Scheme: cfg.Scheme, DAG: true, Seed: 7, Parallel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, fresh.Density, batch.Density, "handoff batch vs one fresh LU per pole")
}

// TestBatchAbortKeepsLU: when the consumer aborts, the LU of the failed
// inversion is not handed back — its ranks may still be reading it — and the
// producer, possibly mid-refactorization of another LU, is released. Two ways
// to abort: an engine run that times out with its ranks still going, and a
// pole that cannot be factorized into a recycled LU (a NaN shift, which the
// pivot guard turns into an error).
func TestBatchAbortKeepsLU(t *testing.T) {
	h := sparse.Grid2D(10, 10, 5)
	poles := mustPoles(t, 8, 2.0, 50.0)
	cfg := BatchConfig{Poles: poles, Relax: 4, MaxWidth: 16, Procs: 4, Scheme: core.BinaryTree, DAG: true, Seed: 3}

	cfg.Timeout = time.Nanosecond
	if _, err := RunBatch(h, cfg); err == nil {
		t.Fatal("a 1 ns engine timeout did not abort the batch")
	}

	cfg.Timeout = 0
	bad := append([]ComplexPole(nil), poles...)
	bad[5].Z = complex(math.NaN(), 1)
	_, err := RunBatch(h, BatchConfig{Poles: bad, Relax: 4, MaxWidth: 16, Procs: 4, Scheme: core.BinaryTree, DAG: true, Seed: 3})
	if err == nil || !strings.Contains(err.Error(), "pole 5") {
		t.Fatalf("NaN pole: got %v, want an error naming pole 5", err)
	}
	// The arena and the engine template survive an aborted batch.
	if _, err := RunBatch(h, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestBatchErrors: no poles, and an n = 0 Hamiltonian on the serial
// reference and on the engine, are errors, not panics in the analysis.
func TestBatchErrors(t *testing.T) {
	h := sparse.Grid2D(4, 4, 1)
	if _, err := RunBatch(h, BatchConfig{}); err == nil {
		t.Fatal("expected error for empty pole list")
	}
	poles := mustPoles(t, 2, 2.0, 50.0)
	for _, procs := range []int{1, 4} {
		_, err := RunBatch(sparse.Grid2D(0, 0, 1), BatchConfig{Poles: poles, Procs: procs})
		if err == nil || !strings.Contains(err.Error(), "empty matrix") {
			t.Fatalf("procs %d: got %v, want an empty-matrix error", procs, err)
		}
	}
}

// BenchmarkPexsiBatch16 drives the 16-pole batch engine end to end on a
// geometry-free Hamiltonian (analysis is a real cost there, as in general
// PEXSI inputs). Tracked by the Mann-Whitney bench gate.
func BenchmarkPexsiBatch16(b *testing.B) {
	h := sparse.RandomSym(400, 4, 3)
	poles, err := MatsubaraPoles(16, 2.0, 50.0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunBatch(h, BatchConfig{Poles: poles, Relax: 4, MaxWidth: 24}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPexsiBatchP16 is bench/'s pexsi_z16_p16 op: the 16-pole complex
// batch on the engine — DG2D(16,16,4), β=10 μ=0, 16 ranks, shifted trees,
// DAG on, relax 4 / width 48 — where BenchmarkPexsiBatch16 (no Procs) times
// the serial reference. One template per batch: poles 2…16 run on the
// recycled slot state.
func BenchmarkPexsiBatchP16(b *testing.B) {
	h := sparse.DG2D(16, 16, 4, 1)
	poles, err := MatsubaraPoles(16, 10, 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := BatchConfig{Poles: poles, Relax: 4, MaxWidth: 48, Procs: 16,
		Scheme: core.ShiftedBinaryTree, DAG: true, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunBatch(h, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
