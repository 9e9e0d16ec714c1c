package distrun_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/distrun"
	"pselinv/internal/exp"
	"pselinv/internal/procgrid"
	"pselinv/internal/selinv"
	"pselinv/internal/simmpi"
	"pselinv/internal/sparse"
)

// TestMain installs the worker hook: when the launcher re-executes this
// test binary with the worker environment set, MaybeWorker takes over and
// the test driver never runs in the child.
func TestMain(m *testing.M) {
	distrun.MaybeWorker()
	os.Exit(m.Run())
}

// testSchemes are the three schemes the cross-backend golden covers.
var testSchemes = []core.Scheme{core.FlatTree, core.BinaryTree, core.ShiftedBinaryTree}

func testProblem() (*sparse.Generated, distrun.Spec) {
	// A 4x1 grid makes the column trees span all four ranks, so the three
	// schemes route genuinely different per-rank volumes and the golden
	// discriminates them (on a 2x2 grid every tree has ≤2 ranks and the
	// schemes coincide).
	gen := sparse.Grid2D(12, 12, 3)
	spec := distrun.Spec{
		Relax:      2,
		MaxWidth:   8,
		PR:         4,
		PC:         1,
		Seed:       1,
		TimeoutSec: 60,
	}
	return gen, spec
}

// renderVolumes formats measurements with full float64 precision, so two
// renderings are equal iff the underlying byte counters are equal.
func renderVolumes(ms []*exp.VolumeMeasurement) string {
	var b strings.Builder
	f := func(vs []float64) {
		for _, v := range vs {
			b.WriteByte(' ')
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	for _, m := range ms {
		b.WriteString("scheme: " + m.Scheme.String() + "\n")
		b.WriteString("colbcast_sent_mb:")
		f(m.ColBcastSent)
		b.WriteString("rowreduce_recv_mb:")
		f(m.RowReduceRecv)
		b.WriteString("total_sent_mb:")
		f(m.TotalSent)
	}
	return b.String()
}

// requireVolumesArePlan is the hub of the cross-backend equivalence: the
// vectors a multi-process run counted must equal, class by class and rank by
// rank, the ones exp.PlanVolumes reads off the plan of the same spec — the
// vectors internal/pselinv's TestMeasuredVolumesMatchPlanExactly ties every
// in-process run to. TCP = plan = in-process, and no backend (nor a
// regenerated golden) can drift to shipping anything but each tree edge's
// blocks once.
func requireVolumesArePlan(t *testing.T, gen *sparse.Generated, spec distrun.Spec, remote []*exp.VolumeMeasurement) {
	t.Helper()
	bal := core.CyclicBalancer
	if spec.Balancer != "" {
		var err error
		if bal, err = core.ParseBalancer(spec.Balancer); err != nil {
			t.Fatal(err)
		}
	}
	schemes := make([]core.Scheme, len(remote))
	for i, m := range remote {
		schemes[i] = m.Scheme
	}
	plan := exp.PlanVolumes(exp.PrepareSymbolic(gen, spec.Relax, spec.MaxWidth), procgrid.New(spec.PR, spec.PC),
		schemes, core.PlanConfig{Seed: spec.Seed, Balancer: bal, Topo: core.Topology{CoresPerNode: spec.CoresPerNode}})
	for i, m := range remote {
		for _, v := range []struct {
			name      string
			plan, tcp []float64
		}{
			{"Col-Bcast sent", plan[i].ColBcastSent, m.ColBcastSent},
			{"Row-Reduce recv", plan[i].RowReduceRecv, m.RowReduceRecv},
			{"total sent", plan[i].TotalSent, m.TotalSent},
		} {
			if !reflect.DeepEqual(v.plan, v.tcp) {
				t.Errorf("%v: %s diverges from the plan:\n  plan: %v\n  tcp:  %v", m.Scheme, v.name, v.plan, v.tcp)
			}
		}
	}
}

// TestCrossBackendVolumeEquivalence: the per-rank, per-class volume
// vectors of a P=4 run in four OS processes meshed over TCP must be the
// plan's — which is what the goroutine-mailbox backend moves too — and
// must match the checked-in golden, pinning the measurement across
// sessions.
func TestCrossBackendVolumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 12 worker processes")
	}
	gen, spec := testProblem()
	remote, err := distrun.MeasureVolumes(gen, spec, testSchemes, &distrun.Options{Stderr: testWriter{t}})
	if err != nil {
		t.Fatal(err)
	}
	requireVolumesArePlan(t, gen, spec, remote)

	got := renderVolumes(remote)
	goldenPath := filepath.Join("testdata", "commvol-p4.golden")
	if os.Getenv("PSELINV_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (set PSELINV_UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("volume matrices drifted from golden %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

// TestSpecBuildRejectsNegativeCoresPerNode: a negative packing fails Build
// instead of silently putting every rank on one node.
func TestSpecBuildRejectsNegativeCoresPerNode(t *testing.T) {
	gen, spec := testProblem()
	staged, err := distrun.StageMatrix(t.TempDir(), gen)
	if err != nil {
		t.Fatal(err)
	}
	spec.MatrixFile, spec.MatrixName, spec.Geom = staged.MatrixFile, staged.MatrixName, staged.Geom
	spec.Scheme, spec.CoresPerNode = core.TopoShiftedTree, -5
	if _, _, _, err := spec.Build(); err == nil || !strings.Contains(err.Error(), "cores_per_node") {
		t.Fatalf("Build with cores_per_node -5: %v, want an error naming the field", err)
	}
}

// TestCrossBackendTopoSchemeEquivalence is the cross-backend golden for
// the topology-aware scheme: with the four ranks packed two to a node
// (CoresPerNode=2 splits the P=4 column trees across a node boundary),
// the per-rank volume vectors over TCP must be the plan's and match the
// checked-in golden.
func TestCrossBackendTopoSchemeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 8 worker processes")
	}
	gen, spec := testProblem()
	spec.CoresPerNode = 2
	schemes := []core.Scheme{core.TopoShiftedTree}

	remote, err := distrun.MeasureVolumes(gen, spec, schemes, &distrun.Options{Stderr: testWriter{t}})
	if err != nil {
		t.Fatal(err)
	}
	requireVolumesArePlan(t, gen, spec, remote)

	got := renderVolumes(remote)
	goldenPath := filepath.Join("testdata", "commvol-topo-p4.golden")
	if os.Getenv("PSELINV_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (set PSELINV_UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("volume matrices drifted from golden %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

// TestCrossBackendBalancerEquivalence: a non-default supernode→process
// balancer is a pure function of (pattern, grid), so four OS processes
// re-deriving the work-greedy owner map independently must route exactly
// the bytes of the plan built here, which pins the balancer end to end over
// a real TCP mesh.
func TestCrossBackendBalancerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 4 worker processes")
	}
	gen, spec := testProblem()
	spec.PR, spec.PC = 2, 2 // square grid: row-reduce traffic is nonzero
	spec.Balancer = "work"
	schemes := []core.Scheme{core.ShiftedBinaryTree}

	remote, err := distrun.MeasureVolumes(gen, spec, schemes, &distrun.Options{Stderr: testWriter{t}})
	if err != nil {
		t.Fatal(err)
	}
	requireVolumesArePlan(t, gen, spec, remote)
}

// TestDistributedRejectsUnknownBalancer: an invalid balancer slug must
// fail the launch with the slug-listing parse error, not hang the mesh.
func TestDistributedRejectsUnknownBalancer(t *testing.T) {
	gen, spec := testProblem()
	for _, bad := range []string{"zigzag", "nnz", "subtree"} {
		spec.Balancer = bad
		_, err := distrun.MeasureVolumes(gen, spec, []core.Scheme{core.FlatTree},
			&distrun.Options{Stderr: testWriter{t}})
		if err == nil {
			t.Fatalf("unknown balancer %q accepted", bad)
		}
		if !strings.Contains(err.Error(), strconv.Quote(bad)) || !strings.Contains(err.Error(), "cyclic|work") {
			t.Fatalf("error does not name the bad slug %q and the valid ones: %v", bad, err)
		}
	}
}

// TestWorkerTimeoutEmbedsSnapshot: a distributed timeout must surface the
// engine's hung-run report (rank states, pending messages) in the
// launcher's error, not just an exit code.
func TestWorkerTimeoutEmbedsSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 4 worker processes")
	}
	gen, spec := testProblem()
	spec.TimeoutSec = 1e-6 // expires before any cross-process message lands
	_, err := distrun.MeasureVolumes(gen, spec, []core.Scheme{core.BinaryTree}, &distrun.Options{Stderr: testWriter{t}})
	if err == nil {
		t.Fatal("1µs deadline produced no error")
	}
	if !strings.Contains(err.Error(), "deadlock report") {
		t.Errorf("timeout error lacks the in-flight snapshot:\n%v", err)
	}
	if !strings.Contains(err.Error(), "rank states:") {
		t.Errorf("timeout error lacks rank states:\n%v", err)
	}
}

// testWriter forwards worker stderr into the test log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("worker: %s", strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// requireTCPMatchesReference launches spec's problem on OS processes meshed
// over TCP and ties the result to the serial reference in two links. In
// this process, Spec.Build — the function every worker runs — must select
// the plan gen's values call for, and that plan's in-process run must agree
// with selinv.SelInv within 1e-9. Over TCP, every rank re-runs the plan on
// the in-process transport and verifies each block it owns word-for-word
// (Spec.SelfCheck; workers discard their A⁻¹ shares, so the check is
// distributed too), the shares must cover the whole selected inverse, and
// the traffic must be the selected plan's: mirror sends on the symmetric
// path, row broadcasts on the general one, never both.
func requireTCPMatchesReference(t *testing.T, gen *sparse.Generated, spec distrun.Spec, schemes []core.Scheme) {
	t.Helper()
	wantSymmetric := gen.A.IsSymmetric(0)
	dir := t.TempDir()
	staged, err := distrun.StageMatrix(dir, gen)
	if err != nil {
		t.Fatal(err)
	}
	spec.MatrixFile, spec.MatrixName, spec.Geom = staged.MatrixFile, staged.MatrixName, staged.Geom
	spec.SelfCheck = true
	for _, scheme := range schemes {
		spec.Scheme = scheme
		pipe, plan, eng, err := spec.Build()
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if plan.Symmetric != wantSymmetric {
			t.Fatalf("%v: Build selected Symmetric=%v for %s, whose values say %v", scheme, plan.Symmetric, gen.Name, wantSymmetric)
		}
		ref := selinv.SelInv(pipe.LU)
		local, err := eng.Run(spec.Timeout())
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		nlocal, nref := 0, 0
		local.Ainv.Range(func(int, int, *dense.Matrix) { nlocal++ })
		ref.Range(func(i, j int, want *dense.Matrix) {
			nref++
			if d := local.Ainv.MustGet(i, j).MaxAbsDiff(want); !(d <= 1e-9) {
				t.Fatalf("%v: block (%d,%d) of Build's plan is off the serial reference by %g", scheme, i, j, d)
			}
		})
		if nlocal != nref {
			t.Fatalf("%v: %d blocks computed, reference has %d", scheme, nlocal, nref)
		}
		local.Release()

		specPath, err := distrun.WriteSpec(dir, &spec)
		if err != nil {
			t.Fatal(err)
		}
		outcome, err := distrun.Launch(specPath, &spec, &distrun.Options{Stderr: testWriter{t}})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		var checked, mirrored, rowBcast int64
		for _, res := range outcome.Results {
			checked += res.CheckedBlocks
			mirrored += res.SentBytes[simmpi.ClassSymmSend]
			rowBcast += res.SentBytes[simmpi.ClassRowBcast]
		}
		if checked != int64(nref) {
			t.Errorf("%v: workers verified %d blocks, selected inverse has %d — shares do not cover the result",
				scheme, checked, nref)
		}
		if (mirrored > 0) != wantSymmetric || (rowBcast > 0) == wantSymmetric {
			t.Errorf("%v: workers sent %d mirror bytes and %d Row-Bcast bytes; values symmetric=%v",
				scheme, mirrored, rowBcast, wantSymmetric)
		}
		ref.Release()
	}
}

// TestDistributedComplexParityTCP: a complex-shift selected inversion on
// four OS processes meshed over TCP must be bit-identical to the
// in-process run of the same plan — the symmetric plan for symmetric
// staged values, the general plan for Asymmetrize'd ones.
func TestDistributedComplexParityTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 16 worker processes")
	}
	for _, asym := range []bool{false, true} {
		gen, spec := testProblem()
		if asym {
			gen = sparse.Asymmetrize(gen, 5, 0.4)
		}
		spec.PR, spec.PC = 2, 2
		spec.Complex = true
		spec.ZRe, spec.ZIm = 0.5, 1.5
		spec.Balancer = "work"
		requireTCPMatchesReference(t, gen, spec, []core.Scheme{core.FlatTree, core.ShiftedBinaryTree})
	}
}

// TestDistributedAsymmetricValuesTCP: a REAL staged matrix with asymmetric
// values must run the general plan at P=4 and match the serial reference.
// Spec.Build used to pin the symmetric plan on every real matrix, and
// SelfCheck compared the wrong inverse with the same wrong plan's.
func TestDistributedAsymmetricValuesTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 4 worker processes")
	}
	gen, spec := testProblem()
	spec.PR, spec.PC = 2, 2
	requireTCPMatchesReference(t, sparse.Asymmetrize(gen, 5, 0.4), spec, []core.Scheme{core.ShiftedBinaryTree})
}
