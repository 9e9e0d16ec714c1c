// Package pselinv is a Go reproduction of the parallel selected inversion
// system of Jacquelin, Yang, Lin and Wichmann, "Enhancing Scalability and
// Load Balancing of Parallel Selected Inversion via Tree-Based
// Asynchronous Communication" (IPDPS 2016).
//
// Given a sparse symmetric matrix A, selected inversion computes the
// entries {(A⁻¹)ᵢⱼ : Aᵢⱼ ≠ 0} — the quantity needed by pole expansion
// (PEXSI) electronic-structure calculations — without forming the full
// inverse. The package provides:
//
//   - synthetic matrix generators standing in for the paper's test set,
//   - fill-reducing orderings, supernodal symbolic analysis and a block
//     LU factorization,
//   - a sequential selected inversion (Algorithm 1 of the paper),
//   - a distributed-memory parallel selected inversion running on a
//     simulated MPI world of goroutine ranks, with restricted collective
//     communication organized as Flat, Binary or Shifted Binary trees
//     (the paper's contribution), and per-rank communication-volume
//     accounting,
//   - a discrete-event network simulator reproducing the paper's
//     strong-scaling experiments on laptop hardware.
//
// Quickstart:
//
//	m := pselinv.Grid2D(16, 16, 1)
//	sys, _ := pselinv.NewSystem(m, pselinv.Options{Ordering: pselinv.OrderNestedDissection})
//	inv, _ := sys.SelInv()
//	d, _ := inv.Entry(0, 0) // (A⁻¹)₀₀
//
//	par, _ := sys.ParallelSelInv(64, pselinv.ShiftedBinaryTree, 1)
//	fmt.Println(par.MaxSentMB()) // communication balance
package pselinv

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pselinv/internal/blockmat"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/netsim"
	"pselinv/internal/obs"
	"pselinv/internal/ordering"
	"pselinv/internal/pexsi"
	"pselinv/internal/procgrid"
	"pselinv/internal/pselinv"
	"pselinv/internal/selinv"
	"pselinv/internal/simmpi"
	"pselinv/internal/sparse"
)

// Matrix is a sparse symmetric matrix accepted by the solver pipeline. Its
// sparsity pattern never changes after construction (Asymmetrize rewrites
// values only), which is what lets the fingerprint be computed once.
type Matrix struct {
	gen *sparse.Generated // pattern and values, shared with the source of a Shifted view
	// sigma is the diagonal shift Shifted recorded: the matrix is gen + σI.
	// The factorization adds it while it assembles; a reader that needs the
	// shifted values takes them from materialized.
	sigma float64
	fp    atomic.Pointer[string] // memoized Fingerprint
}

// N returns the matrix dimension.
func (m *Matrix) N() int { return m.gen.A.N }

// NNZ returns the stored nonzero count.
func (m *Matrix) NNZ() int { return m.gen.A.NNZ() }

// Name returns the matrix's descriptive name.
func (m *Matrix) Name() string { return m.gen.Name }

// Grid2D returns the 5-point Laplacian on an nx×ny grid with randomized
// symmetric values (diagonally dominant).
func Grid2D(nx, ny int, seed int64) *Matrix {
	return &Matrix{gen: sparse.Grid2D(nx, ny, seed)}
}

// Grid3D returns the 7-point Laplacian on an nx×ny×nz grid.
func Grid3D(nx, ny, nz int, seed int64) *Matrix {
	return &Matrix{gen: sparse.Grid3D(nx, ny, nz, seed)}
}

// DG2D emulates a 2D discontinuous-Galerkin Hamiltonian (the character of
// the paper's DG_PNF14000): dofs unknowns per element, dense coupling to
// the 8 surrounding elements.
func DG2D(nx, ny, dofs int, seed int64) *Matrix {
	return &Matrix{gen: sparse.DG2D(nx, ny, dofs, seed)}
}

// FE3D emulates a 3D finite-element matrix (the character of audikw_1).
func FE3D(nx, ny, nz, dofs int, seed int64) *Matrix {
	return &Matrix{gen: sparse.FE3D(nx, ny, nz, dofs, seed)}
}

// Banded returns a symmetric banded matrix with half-bandwidth bw.
func Banded(n, bw int, seed int64) *Matrix {
	return &Matrix{gen: sparse.Banded(n, bw, seed)}
}

// RandomSym returns a random structurally symmetric diagonally dominant
// matrix with about avgDeg off-diagonals per row.
func RandomSym(n, avgDeg int, seed int64) *Matrix {
	return &Matrix{gen: sparse.RandomSym(n, avgDeg, seed)}
}

// RandomAsym returns a random structurally symmetric matrix with
// asymmetric values, exercising the general selected-inversion path.
func RandomAsym(n, avgDeg int, seed int64) *Matrix {
	return &Matrix{gen: sparse.RandomAsym(n, avgDeg, seed)}
}

// Asymmetrize perturbs the off-diagonal values asymmetrically (pattern
// unchanged, A ≠ Aᵀ) and restores diagonal dominance; the solver then uses
// the general communication pattern automatically. It perturbs a copy of the
// values, which a Shifted view and its source share.
func (m *Matrix) Asymmetrize(seed int64, eps float64) *Matrix {
	g := *m.materialized()
	a := *g.A
	a.Val, g.A = slices.Clone(a.Val), &a
	m.gen, m.sigma = sparse.Asymmetrize(&g, seed, eps), 0
	return m
}

// Shifted returns a new matrix A + σI — the pole-expansion transformation. It
// shares m's immutable sparsity pattern (and so the Fingerprint), so shifted
// matrices reuse a Symbolic analysis of the original, and m's values, to which
// it adds σ where they are read: no values are copied. Shifting a shifted
// matrix shifts a copy of its values, as shifting twice always rounded.
func (m *Matrix) Shifted(sigma float64) (*Matrix, error) {
	gen := m.materialized()
	if err := gen.A.CheckDiagonal(); err != nil {
		return nil, fmt.Errorf("pselinv: %s: %w", m.Name(), err)
	}
	sh := &Matrix{gen: gen, sigma: sigma}
	sh.fp.Store(m.fp.Load())
	return sh, nil
}

// materialized returns the matrix with its shift in the values: the shared
// gen when there is no shift, else a shifted copy — bit for bit the values a
// shifted matrix held when Shifted made that copy itself.
func (m *Matrix) materialized() *sparse.Generated {
	if m.sigma == 0 {
		return m.gen
	}
	a, err := m.gen.A.ShiftDiagonal(m.sigma)
	if err != nil {
		panic(err) // Shifted found every diagonal entry present
	}
	return &sparse.Generated{A: a, Name: m.gen.Name, Geom: m.gen.Geom}
}

// Fingerprint returns a stable digest of the sparsity pattern (structure
// only, not values). Matrices with equal fingerprints can share one
// Symbolic analysis. The pattern is hashed on the first call only.
func (m *Matrix) Fingerprint() string {
	if fp := m.fp.Load(); fp != nil {
		return *fp
	}
	fp := m.gen.A.PatternFingerprint()
	m.fp.Store(&fp)
	return fp
}

// IsSymmetric reports whether the matrix has symmetric values.
func (m *Matrix) IsSymmetric() bool { return m.gen.A.IsSymmetric(0) }

// FromMatrixMarket reads a coordinate MatrixMarket stream. The matrix must
// be structurally symmetric; values may be asymmetric (the general
// communication path is used automatically in that case).
func FromMatrixMarket(r io.Reader, name string) (*Matrix, error) {
	a, err := sparse.ReadMatrixMarket(r)
	if err != nil {
		return nil, err
	}
	if !a.IsStructurallySymmetric() {
		return nil, fmt.Errorf("pselinv: %s: matrix pattern is not structurally symmetric", name)
	}
	return &Matrix{gen: &sparse.Generated{A: a, Name: name}}, nil
}

// WriteMatrixMarket writes the matrix in MatrixMarket coordinate format.
func (m *Matrix) WriteMatrixMarket(w io.Writer) error {
	return sparse.WriteMatrixMarket(w, m.materialized().A)
}

// OrderingMethod selects the fill-reducing ordering.
type OrderingMethod = ordering.Method

// Fill-reducing orderings.
const (
	OrderNatural          = ordering.Natural
	OrderRCM              = ordering.RCM
	OrderNestedDissection = ordering.NestedDissection
	OrderMinimumDegree    = ordering.MinimumDegree
)

// Scheme selects the restricted-collective tree construction (§III of the
// paper).
type Scheme = core.Scheme

// Tree schemes.
const (
	// FlatTree is the centralized scheme of PSelInv v0.7.3.
	FlatTree = core.FlatTree
	// BinaryTree is the recursive-halving binary tree.
	BinaryTree = core.BinaryTree
	// ShiftedBinaryTree is the paper's randomized circular-shift heuristic.
	ShiftedBinaryTree = core.ShiftedBinaryTree
	// RandomPermTree fully permutes participants (ablation; rejected by
	// the paper for destroying locality).
	RandomPermTree = core.RandomPermTree
	// Hybrid is flat below a size threshold and shifted above (§IV-B).
	Hybrid = core.Hybrid
	// TopoShiftedTree is the shifted binary tree made topology-aware: the
	// shift rotates forwarders within node groups and one leader per node
	// crosses the inter-node network (minimal cross-node edges).
	TopoShiftedTree = core.TopoShiftedTree
)

// ParseScheme resolves a flag or request value ("flat", "binary",
// "shifted", "randperm", "hybrid", "toposhifted") to a Scheme; an
// unknown name is an error listing the valid slugs.
func ParseScheme(name string) (Scheme, error) { return core.ParseScheme(name) }

// SchemeSlugs lists the flag-facing names of every scheme.
func SchemeSlugs() []string { return core.SchemeSlugs() }

// Balancer selects the supernode→process mapping strategy of the
// distributed phase. All balancers produce the same selected-inversion
// values; only the per-rank work and communication distribution changes.
type Balancer = core.Balancer

// Supernode→process load balancers.
const (
	// CyclicBalancer is the 2D block-cyclic default (the paper's mapping).
	CyclicBalancer = core.CyclicBalancer
	// WorkBalancer greedily assigns supernodes by estimated
	// selected-inversion flops.
	WorkBalancer = core.WorkBalancer
)

// ParseBalancer resolves a flag or request value ("cyclic", "work") to a
// Balancer; an unknown name is an error listing the valid slugs.
func ParseBalancer(name string) (Balancer, error) { return core.ParseBalancer(name) }

// BalancerSlugs lists the flag-facing names of every balancer.
func BalancerSlugs() []string { return core.BalancerSlugs() }

// Options configures the analysis phase.
type Options struct {
	// Ordering's zero value is OrderNatural (no reordering); pass
	// OrderNestedDissection for the fill-reducing ordering solvers use.
	Ordering OrderingMethod
	// Relax is the supernode amalgamation slack (rows of tolerated
	// artificial fill); 0 uses a practical default.
	Relax int
	// MaxWidth caps supernode width; 0 uses a practical default (48). It
	// is also the largest dimension any dense kernel call sees. There is no
	// upper limit: a wider cap runs the same scalar triangular solve and
	// blocked GEMM the default does, just on bigger blocks.
	MaxWidth int
	// Timeout bounds each parallel run; 0 means 5 minutes.
	Timeout time.Duration
	// DAG enables intra-rank task-DAG execution on parallel runs: each
	// rank's TRSM/GEMM-sized updates are scheduled onto the shared pool
	// of task-DAG offload slots and overlapped with the tree collectives,
	// which stay on the rank goroutine. The result is byte-identical to a
	// sequential run of the same plan.
	DAG bool
	// CoresPerNode is the rank→node packing consumed by TopoShiftedTree;
	// 0 uses the Edison-style default of 24 ranks per node, and a negative
	// value is an AnalyzePattern error. Other schemes ignore it.
	CoresPerNode int
	// Balancer selects the supernode→process mapping strategy by slug
	// ("cyclic", "work"); empty means "cyclic". An
	// unknown slug is an AnalyzePattern error. The mapping changes which
	// rank owns which supernode — and therefore the communication plan —
	// but not the computed values.
	Balancer string
}

func (o Options) withDefaults() Options {
	if o.Relax == 0 {
		o.Relax = 4
	}
	if o.MaxWidth == 0 {
		o.MaxWidth = 48
	}
	if o.Timeout == 0 {
		o.Timeout = 5 * time.Minute
	}
	return o
}

// Symbolic is the value-independent half of an analyzed problem: the
// fill-reducing ordering, the supernodal symbolic analysis, and a cache of
// communication plans and engine programs derived from them. It depends
// only on the sparsity pattern, so one Symbolic serves every matrix sharing
// that pattern — the PEXSI workload, where tens of selected inversions per
// SCF iteration differ only in numeric values. A Symbolic is immutable
// after construction apart from its internal plan cache and the factors
// released to it, which are mutex-guarded; all methods are safe for
// concurrent use.
type Symbolic struct {
	opt Options
	bal Balancer // parsed from opt.Balancer
	fp  string
	an  *etree.Analysis
	sc  *factor.Scatter // the pattern's entries → the factor layout

	// engines caches one engine template (plan + per-rank programs, no
	// numeric factor) per grid/scheme/seed/symmetry combination, so warm
	// same-pattern runs skip plan construction entirely. Bounded: see
	// engineTemplate. free holds, per element type, up to maxFreeFactors
	// factors handed back by System.Release, which factorize refactorizes in
	// place instead of allocating a slab.
	mu      sync.Mutex
	engines map[engineKey]*pselinv.Engine
	free    [2][]*factor.LU
}

// maxFreeFactors bounds the released factors a Symbolic keeps per element
// type: one per concurrent System of the server's default two engine slots,
// or the batch endpoint's factorize/invert pipeline.
const maxFreeFactors = 2

type engineKey struct {
	pr, pc    int
	scheme    Scheme
	balancer  Balancer
	seed      uint64
	symmetric bool
}

// maxEngineTemplates bounds the per-Symbolic plan cache. Serving workloads
// use a handful of (grid, scheme) combinations; if a client sweeps seeds the
// cache is cleared wholesale rather than LRU-tracked — rebuilding a plan is
// milliseconds, and the common case stays a single map hit.
const maxEngineTemplates = 16

// AnalyzePattern orders and symbolically analyzes the matrix's sparsity
// pattern without touching its values. The result can Factorize any matrix
// with the same pattern, skipping the ordering/analysis cost — on
// geometry-free patterns (where nested dissection runs on the general
// graph) that is the dominant cost of NewSystem.
func AnalyzePattern(m *Matrix, opt Options) (*Symbolic, error) {
	opt = opt.withDefaults()
	bal := CyclicBalancer
	if opt.Balancer != "" {
		var err error
		if bal, err = ParseBalancer(opt.Balancer); err != nil {
			return nil, fmt.Errorf("pselinv: %w", err)
		}
	}
	if opt.CoresPerNode < 0 {
		return nil, fmt.Errorf("pselinv: CoresPerNode %d is negative", opt.CoresPerNode)
	}
	if m.N() == 0 {
		return nil, fmt.Errorf("pselinv: %s: empty matrix", m.Name())
	}
	if !m.gen.A.IsStructurallySymmetric() {
		return nil, fmt.Errorf("pselinv: %s: pattern must be structurally symmetric", m.Name())
	}
	perm := ordering.Compute(opt.Ordering, m.gen.A, m.gen.Geom)
	an := etree.Analyze(m.gen.A.Permute(perm), perm,
		etree.Options{Relax: opt.Relax, MaxWidth: opt.MaxWidth})
	sc, err := factor.NewScatter(m.gen.A, an.PermTotal, an.BP)
	if err != nil {
		return nil, fmt.Errorf("pselinv: %s: %w", m.Name(), err)
	}
	return &Symbolic{
		opt:     opt,
		bal:     bal,
		fp:      m.Fingerprint(),
		an:      an,
		sc:      sc,
		engines: map[engineKey]*pselinv.Engine{},
	}, nil
}

// Fingerprint returns the sparsity-pattern digest this analysis was built
// for; Factorize accepts exactly the matrices sharing it.
func (sy *Symbolic) Fingerprint() string { return sy.fp }

// NumSupernodes returns the supernode count of the analysis.
func (sy *Symbolic) NumSupernodes() int { return sy.an.BP.NumSnodes() }

// FactorNNZ returns the scalar nonzero count of the block pattern of L.
func (sy *Symbolic) FactorNNZ() int64 { return sy.an.BP.NNZScalars() }

// Factorize numerically factorizes a matrix against this symbolic
// analysis, returning a System ready for selected inversion. The matrix
// must share the pattern the analysis was built from. Systems produced by
// one Symbolic share its analysis and plan cache and may run concurrently:
// the shared state is read-only during runs (the plan cache is internally
// locked), and each System owns its numeric factor until Release hands it
// back for the next Factorize.
func (sy *Symbolic) Factorize(m *Matrix) (*System, error) {
	return sy.factorize(m, dense.Real, 0)
}

// factorize factorizes A − zI in the given arithmetic, m's values going
// through the scatter map of the pattern m must share with the analysis, into
// a released factor when one is free.
func (sy *Symbolic) factorize(m *Matrix, elem dense.Elem, z complex128) (*System, error) {
	if got := m.Fingerprint(); got != sy.fp {
		return nil, fmt.Errorf("pselinv: %s: sparsity pattern does not match the symbolic analysis (fingerprint %.12s… vs %.12s…)",
			m.Name(), got, sy.fp)
	}
	var lu *factor.LU
	sy.mu.Lock()
	if free := sy.free[elem]; len(free) > 0 {
		lu, free[len(free)-1] = free[len(free)-1], nil
		sy.free[elem] = free[:len(free)-1]
	}
	sy.mu.Unlock()
	if lu == nil {
		lu = factor.New(sy.an.BP, elem)
	}
	if err := lu.Refactorize(m.gen.A, m.sigma, sy.sc, z); err != nil {
		sy.putFactor(lu) // it holds no factorization and nothing reads it
		return nil, fmt.Errorf("pselinv: %s factorization of %s failed: %w", elem, m.Name(), err)
	}
	return &System{m: m, opt: sy.opt, sym: sy, an: sy.an, lu: lu, symmetric: lu.Symmetric}, nil
}

// putFactor keeps lu, which nothing reads any more, for the next factorize
// unless maxFreeFactors of its element type are already waiting.
func (sy *Symbolic) putFactor(lu *factor.LU) {
	sy.mu.Lock()
	defer sy.mu.Unlock()
	if len(sy.free[lu.Elem]) < maxFreeFactors {
		sy.free[lu.Elem] = append(sy.free[lu.Elem], lu)
	}
}

// FactorizeShifted numerically factorizes A − zI for a complex shift z
// against this symbolic analysis, returning a System whose selected
// inverses are complex — the per-pole kernel of the PEXSI workload. The
// matrix must share the pattern the analysis was built from (the shift
// only touches the diagonal, so the pattern is unchanged). It also keeps
// m's value symmetry — A − zI is complex symmetric (plain transpose) when A
// is symmetric — so, as for Factorize, symmetric values take the paper's
// symmetric communication path (Û = L̂ᵀ) and a lower-only factorization,
// asymmetric ones the general path. A parallel run is bit-reproducible for
// one plan (grid, scheme, balancer, seed) and agrees with SelInv within 1e-9
// at every rank count; a one-rank run is bit-identical to it.
func (sy *Symbolic) FactorizeShifted(m *Matrix, z complex128) (*System, error) {
	return sy.factorize(m, dense.Complex, z)
}

// engineTemplate returns the cached engine template (communication plan +
// per-rank programs, no numeric factor) for one
// grid/scheme/balancer/seed/symmetry combination, building and caching it
// on first use. The balancer is part of the key: a different
// supernode→process map is a different plan with different per-rank
// programs, never a reusable variant of an existing one.
func (sy *Symbolic) engineTemplate(pr, pc int, scheme Scheme, seed uint64, symmetric bool) *pselinv.Engine {
	key := engineKey{pr: pr, pc: pc, scheme: scheme, balancer: sy.bal, seed: seed, symmetric: symmetric}
	sy.mu.Lock()
	defer sy.mu.Unlock()
	if eng, ok := sy.engines[key]; ok {
		return eng
	}
	if len(sy.engines) >= maxEngineTemplates {
		sy.engines = map[engineKey]*pselinv.Engine{}
	}
	plan := core.NewPlanConfig(sy.an.BP, procgrid.New(pr, pc), core.PlanConfig{
		Scheme: scheme, Seed: seed, Symmetric: symmetric,
		Balancer: sy.bal,
		Topo:     core.Topology{CoresPerNode: sy.opt.CoresPerNode},
	})
	eng := pselinv.NewEngine(plan, nil)
	sy.engines[key] = eng
	return eng
}

// System is an analyzed and factorized problem, ready for selected
// inversion (sequential, parallel or simulated). Systems sharing one
// Symbolic may run concurrently; a single System is itself safe for
// concurrent Parallel* calls (each run gets a fresh world and rank state).
// Release ends its life, handing the factor back for the next Factorize.
type System struct {
	m         *Matrix
	opt       Options
	sym       *Symbolic
	an        *etree.Analysis
	symmetric bool

	// mu guards lu, nil once released, and what Release reads of the runs
	// that read it: how many are in flight and whether one failed.
	mu     sync.Mutex
	lu     *factor.LU
	runs   int
	failed bool
}

var errReleased = errors.New("pselinv: System used after Release")

// begin opens a run reading the factor and returns the factor, or the error
// of a released System.
func (s *System) begin() (*factor.LU, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lu == nil {
		return nil, errReleased
	}
	s.runs++
	return s.lu, nil
}

// end closes a run begin opened.
func (s *System) end(err error) {
	s.mu.Lock()
	s.runs--
	s.failed = s.failed || err != nil
	s.mu.Unlock()
}

// live returns the factor of a System that was not released and panics on
// one that was.
func (s *System) live() *factor.LU {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lu == nil {
		panic(errReleased)
	}
	return s.lu
}

// Release hands the System's numeric factor back to its Symbolic, whose next
// Factorize or FactorizeShifted refactorizes it in place instead of allocating
// one: the slab that is most of a warm pole's garbage. Results already
// returned stay valid. The factor is kept only if every run on the System
// has returned without error and none is in flight — ranks of a failed run
// may still read it — else it is left to the garbage collector. Every later
// method call fails: with an error where the method returns one, otherwise
// by panicking.
func (s *System) Release() {
	s.mu.Lock()
	lu, keep := s.lu, s.runs == 0 && !s.failed
	s.lu = nil
	s.mu.Unlock()
	if lu == nil {
		panic(errReleased)
	}
	if keep {
		s.sym.putFactor(lu)
	}
}

// NewSystem orders, analyzes and factorizes the matrix. Symmetry of the
// values is detected automatically and selects the communication pattern
// of the distributed phase (the paper's symmetric path, or the general
// path with explicit upper-triangle broadcasts and reductions).
//
// Callers inverting many matrices with one sparsity pattern should instead
// AnalyzePattern once and Factorize each matrix against it.
func NewSystem(m *Matrix, opt Options) (*System, error) {
	sy, err := AnalyzePattern(m, opt)
	if err != nil {
		return nil, err
	}
	return sy.factorize(m, dense.Real, 0)
}

// Symbolic returns the shareable value-independent analysis of this
// system; Factorize same-pattern matrices against it to skip re-analysis.
func (s *System) Symbolic() *Symbolic { s.live(); return s.sym }

// SetTimeout overrides the per-run timeout for this System only (the
// Options value is otherwise inherited from the symbolic analysis).
func (s *System) SetTimeout(d time.Duration) {
	s.live()
	if d > 0 {
		s.opt.Timeout = d
	}
}

// SetDAG enables or disables intra-rank task-DAG execution (see
// Options.DAG) on this System's subsequent parallel runs.
func (s *System) SetDAG(on bool) { s.live(); s.opt.DAG = on }

// Symmetric reports whether the system uses the symmetric-value fast path.
func (s *System) Symmetric() bool { s.live(); return s.symmetric }

// LogAbsDet returns log|det A|, a free byproduct of the factorization that
// PEXSI uses for chemical-potential bisection.
func (s *System) LogAbsDet() float64 { return s.live().LogAbsDet() }

// NumSupernodes returns the supernode count of the analysis.
func (s *System) NumSupernodes() int { s.live(); return s.an.BP.NumSnodes() }

// FactorNNZ returns the scalar nonzero count of the block pattern of L
// (the nnz_LU the paper reports per matrix, halved for symmetry).
func (s *System) FactorNNZ() int64 { s.live(); return s.an.BP.NNZScalars() }

// Inverse provides access to the selected elements of A⁻¹ in the
// matrix's original index space.
type Inverse struct {
	an   *etree.Analysis
	ainv *blockmat.BlockMatrix
	elem dense.Elem // of every block of ainv: the factorization's
}

// locate finds original entry (i, j) in the selected inverse: its block and
// the position in it, or ok false outside the computed selected set.
func (inv *Inverse) locate(i, j int) (b *dense.Matrix, r, c int, ok bool) {
	n := len(inv.an.PermTotal)
	if i < 0 || i >= n || j < 0 || j >= n {
		return nil, 0, 0, false
	}
	pi, pj := inv.an.PermTotal[i], inv.an.PermTotal[j]
	part := inv.an.BP.Part
	bi, bj := part.SnodeOf[pi], part.SnodeOf[pj]
	b, ok = inv.ainv.Get(bi, bj)
	return b, pi - part.Start[bi], pj - part.Start[bj], ok
}

// Entry returns (A⁻¹)ᵢⱼ for original indices, with ok reporting whether
// the entry is part of the computed selected set — never for a complex
// inverse, whose entries EntryComplex returns.
func (inv *Inverse) Entry(i, j int) (v float64, ok bool) {
	b, r, c, ok := inv.locate(i, j)
	if !ok || inv.elem == dense.Complex {
		return 0, false
	}
	return b.At(r, c), true
}

// Complex reports whether the inverse holds complex entries (the system
// was built by FactorizeShifted); use the *Complex accessors then.
func (inv *Inverse) Complex() bool { return inv.elem == dense.Complex }

// EntryComplex returns ((A−zI)⁻¹)ᵢⱼ for original indices — of a real system
// too, with a zero imaginary part — with ok reporting membership in the
// selected set.
func (inv *Inverse) EntryComplex(i, j int) (v complex128, ok bool) {
	b, r, c, ok := inv.locate(i, j)
	switch {
	case !ok:
		return 0, false
	case inv.elem == dense.Complex:
		return b.ZAt(r, c), true
	}
	return complex(b.At(r, c), 0), true
}

// DiagonalComplex returns diag((A−zI)⁻¹) of a complex system in the
// original ordering — the per-pole quantity PEXSI weights and sums.
func (inv *Inverse) DiagonalComplex() []complex128 {
	n := len(inv.an.PermTotal)
	d := make([]complex128, n)
	for i := 0; i < n; i++ {
		v, ok := inv.EntryComplex(i, i)
		if !ok {
			panic(fmt.Sprintf("pselinv: diagonal entry %d missing from selected inverse", i))
		}
		d[i] = v
	}
	return d
}

// Diagonal returns diag(A⁻¹) of a real system in the original ordering — the
// quantity PEXSI consumes. A complex inverse has DiagonalComplex.
func (inv *Inverse) Diagonal() []float64 {
	if inv.elem == dense.Complex {
		panic("pselinv: Diagonal of a complex inverse; use DiagonalComplex")
	}
	n := len(inv.an.PermTotal)
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		v, ok := inv.Entry(i, i)
		if !ok {
			panic(fmt.Sprintf("pselinv: diagonal entry %d missing from selected inverse", i))
		}
		d[i] = v
	}
	return d
}

// SelInv computes the selected inverse sequentially with the reference
// Algorithm 1, for real and for complex (shifted) systems alike, in the form
// of the path the values select. A parallel run on one rank is bit-identical
// to it; runs on several ranks agree with it to rounding.
func (s *System) SelInv() (*Inverse, error) {
	lu, err := s.begin()
	if err != nil {
		return nil, err
	}
	defer s.end(nil)
	return &Inverse{an: s.an, ainv: selinv.SelInv(lu), elem: lu.Elem}, nil
}

// LogDet returns log det(A − zI) of a complex (FactorizeShifted) system —
// the pole-expansion byproduct tracking the analytic branch. Real systems
// have no single-valued log det; use LogAbsDet there.
func (s *System) LogDet() (complex128, error) {
	lu, err := s.begin()
	if err != nil {
		return 0, err
	}
	defer s.end(nil)
	if lu.Elem != dense.Complex {
		return 0, fmt.Errorf("pselinv: LogDet requires a complex (shifted) factorization; use LogAbsDet for real systems")
	}
	return lu.LogDet(), nil
}

// ParallelResult is the outcome of a distributed run: the inverse plus the
// per-rank communication-volume measurements the paper's evaluation is
// built on.
type ParallelResult struct {
	*Inverse
	run  *pselinv.RunResult
	grid *procgrid.Grid
	// Elapsed is the wall-clock time of the parallel section.
	Elapsed time.Duration
}

// DagRankStats reports one rank's task-DAG scheduler counters for a run
// with DAG execution enabled (see Options.DAG).
type DagRankStats = obs.DagRankStats

// DagStats returns the per-rank task-DAG scheduler counters of the run,
// or nil when the run executed in sequential (non-DAG) mode.
func (r *ParallelResult) DagStats() []DagRankStats { return r.run.Dag }

// Procs returns the number of simulated ranks.
func (r *ParallelResult) Procs() int { return r.run.World.P }

// Release returns the inverse's block storage to the dense kernel arena so
// repeated runs recycle their matrices instead of churning the garbage
// collector. The embedded Inverse must not be used afterwards; the
// communication-volume accessors remain valid.
func (r *ParallelResult) Release() {
	r.run.Release()
	r.Inverse = nil
}

// GridDims returns the Pr×Pc processor grid shape.
func (r *ParallelResult) GridDims() (pr, pc int) { return r.grid.Pr, r.grid.Pc }

// ColBcastSentMB returns the per-rank volume (MB) sent during Col-Bcast —
// the metric of Table I and Figures 4–6.
func (r *ParallelResult) ColBcastSentMB() []float64 {
	return toMB(r.run.World.VolumeVector(simmpi.ClassColBcast, true))
}

// RowReduceRecvMB returns the per-rank volume (MB) received during
// Row-Reduce — the metric of Table II and Figure 7.
func (r *ParallelResult) RowReduceRecvMB() []float64 {
	return toMB(r.run.World.VolumeVector(simmpi.ClassRowReduce, false))
}

// TotalSentMB returns the per-rank total sent volume in MB.
func (r *ParallelResult) TotalSentMB() []float64 {
	out := make([]float64, r.run.World.P)
	for i := range out {
		out[i] = float64(r.run.World.TotalSent(i)) / 1e6
	}
	return out
}

// MaxSentMB returns the largest per-rank sent volume — the load-balance
// headline number.
func (r *ParallelResult) MaxSentMB() float64 {
	m := 0.0
	for _, v := range r.TotalSentMB() {
		if v > m {
			m = v
		}
	}
	return m
}

func toMB(bs []int64) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		out[i] = float64(b) / 1e6
	}
	return out
}

// ParallelSelInv runs the distributed engine on procs simulated ranks
// (arranged on the most square grid) with the given tree scheme and shift
// seed. The result is bit-reproducible for one (procs, scheme, seed) under
// any message delivery order, and agrees with SelInv to rounding (bit for
// bit on one rank): the reductions are summed along the trees. A procs
// below 1 is an error.
func (s *System) ParallelSelInv(procs int, scheme Scheme, seed uint64) (*ParallelResult, error) {
	return s.parallelRun(procs, scheme, seed, false)
}

// TraceReport gives access to the per-rank execution timeline of an
// observed parallel run.
type TraceReport struct {
	spans []obs.Span
}

// Summary renders per-kind span counts, totals and mean rank utilization.
func (t *TraceReport) Summary() string { return obs.SummarizeSpans(t.spans).String() }

// WriteChromeTrace emits the timeline in Chrome trace-event JSON (open in
// chrome://tracing or Perfetto).
func (t *TraceReport) WriteChromeTrace(w io.Writer) error { return obs.WriteChromeTrace(w, t.spans) }

// ObsReport is the communication-observability report of an observed
// parallel run: per-class P×P traffic matrices, per-rank queue and wait
// telemetry, and the measured per-collective critical paths (see
// internal/obs for the event model).
type ObsReport struct {
	rep *obs.Report
}

// Summary renders totals, imbalance scores and the measured-vs-analytic
// forwarding-chain table.
func (o *ObsReport) Summary() string { return o.rep.Summary() }

// WriteJSON writes the full report as deterministic indented JSON.
func (o *ObsReport) WriteJSON(w io.Writer) error { return o.rep.WriteJSON(w) }

// JSON returns the deterministic indented JSON encoding of the report.
func (o *ObsReport) JSON() ([]byte, error) { return o.rep.JSON() }

// RenderMatrix renders one class's traffic matrix as an ASCII heat map
// (class names as in the paper: "Col-Bcast", "Row-Reduce", ...).
func (o *ObsReport) RenderMatrix(class string) string { return o.rep.RenderMatrix(class) }

// WriteArtifacts writes the report and the run's timeline t into dir as
// obs-<scheme>.json and trace-<scheme>.json (the layout every -obs tool
// uses) and returns the two paths.
func (o *ObsReport) WriteArtifacts(dir string, t *TraceReport) ([]string, error) {
	return obs.WriteArtifacts(dir, o.rep, t.spans)
}

// VolumeImbalance returns max/mean per-rank sent bytes (1.0 = balanced).
func (o *ObsReport) VolumeImbalance() float64 { return o.rep.VolImbalance }

// MaxQueueDepth returns the largest mailbox queue-depth high-watermark.
func (o *ObsReport) MaxQueueDepth() int { return o.rep.MaxQueueHWM() }

// TotalRecvWait returns the blocked-receive wait summed over ranks.
func (o *ObsReport) TotalRecvWait() time.Duration { return o.rep.TotalRecvWait() }

// ClassSentBytes returns total sent bytes per communication class.
func (o *ObsReport) ClassSentBytes() map[string]int64 {
	out := map[string]int64{}
	for _, cr := range o.rep.Classes {
		out[cr.Class] = cr.TotalBytes
	}
	return out
}

// ParallelSelInvObserved is ParallelSelInv with full observability: the
// ranks record their compute and collective spans on one timeline and the
// communication substrate is instrumented, yielding the TraceReport and the
// ObsReport. Each rank's event ring is sized from the plan's message count
// for that rank, so the chain analysis is complete without a capacity to
// tune.
func (s *System) ParallelSelInvObserved(procs int, scheme Scheme, seed uint64) (*ParallelResult, *TraceReport, *ObsReport, error) {
	res, err := s.parallelRun(procs, scheme, seed, true)
	if err != nil {
		return nil, nil, nil, err
	}
	merged, err := obs.Merge(res.run.Snapshots)
	if err != nil {
		res.Release()
		return nil, nil, nil, err
	}
	return res, &TraceReport{spans: merged.Spans}, &ObsReport{rep: merged.Report(scheme.String())}, nil
}

// parallelRun runs the engine on procs ranks of the most square grid.
func (s *System) parallelRun(procs int, scheme Scheme, seed uint64, observed bool) (*ParallelResult, error) {
	if procs < 1 {
		return nil, fmt.Errorf("pselinv: %d ranks requested, need at least 1", procs)
	}
	// The plan and per-rank programs come from the Symbolic's cache (built
	// on first use); Rebind attaches this System's numeric factor without
	// copying them, so warm same-pattern runs skip plan construction.
	lu, err := s.begin()
	if err != nil {
		return nil, err
	}
	grid := procgrid.Squarish(procs)
	eng := s.sym.engineTemplate(grid.Pr, grid.Pc, scheme, seed, s.symmetric).Rebind(lu)
	if observed {
		eng.Obs = obs.NewCollector(eng.Plan.PerRankMsgs(), time.Now())
		eng.Obs.SetTopology(s.opt.CoresPerNode)
	}
	eng.DAG = s.opt.DAG
	run, err := eng.Run(s.opt.Timeout)
	s.end(err)
	if err != nil {
		return nil, err
	}
	return &ParallelResult{
		Inverse: &Inverse{an: s.an, ainv: run.Ainv, elem: lu.Elem},
		run:     run,
		grid:    grid,
		Elapsed: run.Elapsed,
	}, nil
}

// SimParams is the cost model of the timing simulator; the zero value
// selects Cray-XC30-like defaults.
type SimParams struct {
	// Seed controls placement/network inhomogeneity; vary across runs for
	// error bars.
	Seed uint64
	// CoresPerNode is the ranks-per-node packing (default 24, as Edison).
	CoresPerNode int
	// FlopRate is the effective per-rank compute rate, flop/s.
	FlopRate float64
}

// TimingResult is the outcome of a simulated run.
type TimingResult struct {
	// Seconds is the simulated makespan.
	Seconds float64
	// ComputeSeconds is the mean per-rank CPU-busy time.
	ComputeSeconds float64
	// CommSeconds is the remainder (communication and waiting).
	CommSeconds float64
	// Messages and Bytes summarize the simulated traffic.
	Messages int64
	Bytes    int64
}

// FermiOperatorDensity evaluates diag f(A) for the Fermi–Dirac function
// f(ε) = 1/(1+e^{β(ε−μ)}) by a truncated Matsubara pole expansion with
// numPoles complex poles, each evaluated with the complex-shift selected
// inversion (poles run concurrently): the PEXSI workload that motivates
// the paper.
func FermiOperatorDensity(m *Matrix, beta, mu float64, numPoles int) ([]float64, error) {
	poles, err := pexsi.MatsubaraPoles(numPoles, beta, mu)
	if err != nil {
		return nil, err
	}
	res, err := pexsi.RunComplex(m.materialized(), pexsi.ComplexConfig{
		Poles:    poles,
		Relax:    4,
		MaxWidth: 48,
		Parallel: true,
	})
	if err != nil {
		return nil, err
	}
	return res.Density, nil
}

// SimulateTiming predicts the wall-clock behaviour of a run on procs ranks
// under the network cost model — the substitute for the paper's Edison
// measurements (Figures 8 and 9). procs must be positive; unlike the
// Parallel* runs, which return an error, it panics on a count below 1.
func (s *System) SimulateTiming(procs int, scheme Scheme, sp SimParams) *TimingResult {
	s.live()
	params := netsim.DefaultParams()
	if sp.Seed != 0 {
		params.Seed = sp.Seed
	}
	if sp.CoresPerNode > 0 {
		params.CoresPerNode = sp.CoresPerNode
	}
	if sp.FlopRate > 0 {
		params.FlopRate = sp.FlopRate
	}
	grid := procgrid.Squarish(procs)
	// The plan's topology tracks the simulator's packing, so the
	// topology-aware scheme optimizes for the same placement the cost
	// model charges for.
	plan := core.NewPlanConfig(s.an.BP, grid, core.PlanConfig{
		Scheme: scheme, Seed: 1, Symmetric: s.symmetric,
		Balancer: s.sym.bal,
		Topo:     core.Topology{CoresPerNode: params.CoresPerNode},
	})
	res := netsim.SimulateDAG(netsim.BuildDAG(plan), params)
	return &TimingResult{
		Seconds:        res.Makespan,
		ComputeSeconds: res.MeanCompute(),
		CommSeconds:    res.CommTime(),
		Messages:       res.MsgCount,
		Bytes:          res.BytesMoved,
	}
}
