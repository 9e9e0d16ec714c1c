// Package distrun orchestrates a multi-process selected-inversion run on
// localhost: a launcher process stages the problem on disk, spawns one
// worker process per rank, brokers the TCP address exchange for
// internal/tcptransport's two-phase mesh setup, and aggregates each
// worker's per-class volume counters into the per-rank vectors the plan
// predicts — including the global byte-conservation check, which becomes
// a cross-process property once each world only holds one rank's share of
// the counters.
//
// The worker re-exec pattern: any binary that may serve as a worker calls
// MaybeWorker() first thing in main. The launcher re-executes the current
// binary with PSELINV_WORKER_SPEC/PSELINV_WORKER_RANK set, so the child
// never parses flags or runs the caller's main body.
package distrun

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pselinv/internal/core"
	"pselinv/internal/exp"
	"pselinv/internal/factor"
	"pselinv/internal/procgrid"
	"pselinv/internal/pselinv"
	"pselinv/internal/sparse"
)

// Spec is the complete, JSON-serializable description of one distributed
// run. Every worker reconstructs an identical pipeline from it: the matrix
// is read back from a staged MatrixMarket file (written with enough digits
// to round-trip float64 exactly), and ordering/analysis/planning are
// deterministic functions of the matrix, geometry and the seeds below —
// so the per-rank programs agree across processes without any further
// coordination.
type Spec struct {
	// MatrixFile is the staged MatrixMarket file (see StageMatrix).
	MatrixFile string `json:"matrix_file"`
	// MatrixName labels the problem in reports.
	MatrixName string `json:"matrix_name"`
	// Geom, when present, carries the generator's grid geometry so the
	// workers' nested-dissection ordering matches the launcher's.
	Geom *sparse.Geometry `json:"geom,omitempty"`

	// Relax and MaxWidth are the supernode amalgamation options.
	Relax    int `json:"relax"`
	MaxWidth int `json:"max_width"`

	// PR × PC is the processor grid; the world size is PR*PC.
	PR int `json:"pr"`
	PC int `json:"pc"`
	// Scheme is the collective tree scheme (core.Scheme).
	Scheme core.Scheme `json:"scheme"`
	// Seed is the plan's tree-construction seed.
	Seed uint64 `json:"seed"`
	// CoresPerNode is the rank→node packing consumed by the topology-aware
	// scheme (0 = Edison-style default of 24; negative fails Build).
	CoresPerNode int `json:"cores_per_node,omitempty"`
	// Balancer is the supernode→process mapping strategy slug ("cyclic",
	// "work"; empty = cyclic). Balancers are pure
	// functions of (pattern, grid), so every worker re-derives the same
	// owner map; an unknown slug fails Build in every worker.
	Balancer string `json:"balancer,omitempty"`

	// Complex switches the run to the complex-shift kernel: the staged
	// matrix is factorized as A − zI with z = ZRe + i·ZIm. The plan follows
	// the staged values, not the element type (see Build). The engine's
	// reductions fold in a fixed per-plan order, so the result is
	// bit-identical to an in-process run of the same plan and within 1e-9
	// of the serial reference (internal/selinv).
	Complex bool    `json:"complex,omitempty"`
	ZRe     float64 `json:"z_re,omitempty"`
	ZIm     float64 `json:"z_im,omitempty"`
	// SelfCheck makes every worker verify each result block it owns
	// bitwise against a local in-process run of the same plan before
	// reporting. Workers discard their A⁻¹ shares, so this is how a
	// multi-process run certifies that the transport changed no bit: each
	// rank checks its own share, and the launcher sums the counts.
	SelfCheck bool `json:"self_check,omitempty"`

	// Obs turns on full observability in every worker: an obs collector on
	// the engine whose epoch the mesh's handshake clock sync shares, and the
	// engine's snapshot — clock measurements added, trimmed — streamed back
	// to the launcher ahead of the result line (see Outcome.Snapshots). Each
	// worker sizes its event ring from the plan it rebuilt.
	Obs bool `json:"obs,omitempty"`

	// TimeoutSec bounds each worker's engine run.
	TimeoutSec float64 `json:"timeout_sec"`
}

// P returns the world size.
func (s *Spec) P() int { return s.PR * s.PC }

// Timeout returns the engine deadline as a duration (default 120s).
func (s *Spec) Timeout() time.Duration {
	if s.TimeoutSec <= 0 {
		return 120 * time.Second
	}
	return time.Duration(s.TimeoutSec * float64(time.Second))
}

// StageMatrix writes gen's matrix to dir as a MatrixMarket file and
// returns a Spec skeleton with the matrix fields (file, name, geometry)
// filled in.
func StageMatrix(dir string, gen *sparse.Generated) (Spec, error) {
	path := filepath.Join(dir, "matrix.mtx")
	f, err := os.Create(path)
	if err != nil {
		return Spec{}, err
	}
	if err := sparse.WriteMatrixMarket(f, gen.A); err != nil {
		f.Close()
		return Spec{}, fmt.Errorf("distrun: staging %s: %w", gen.Name, err)
	}
	if err := f.Close(); err != nil {
		return Spec{}, err
	}
	return Spec{MatrixFile: path, MatrixName: gen.Name, Geom: gen.Geom}, nil
}

// WriteSpec writes the spec as JSON next to the staged matrix and returns
// its path.
func WriteSpec(dir string, s *Spec) (string, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ReadSpec loads a spec file.
func ReadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &Spec{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("distrun: parsing spec %s: %w", path, err)
	}
	return s, nil
}

// Build reconstructs the pipeline, plan and engine the spec describes.
// Every field that influences the result is in the spec, so concurrent
// workers build identical plans. The plan's symmetry is not a field: it is
// the value symmetry the factorization of the staged matrix recorded.
func (s *Spec) Build() (*exp.Pipeline, *core.Plan, *pselinv.Engine, error) {
	if s.CoresPerNode < 0 {
		return nil, nil, nil, fmt.Errorf("distrun: cores_per_node %d is negative", s.CoresPerNode)
	}
	f, err := os.Open(s.MatrixFile)
	if err != nil {
		return nil, nil, nil, err
	}
	a, err := sparse.ReadMatrixMarket(f)
	f.Close()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("distrun: reading %s: %w", s.MatrixFile, err)
	}
	gen := &sparse.Generated{A: a, Name: s.MatrixName, Geom: s.Geom}
	var pipe *exp.Pipeline
	if s.Complex {
		pipe = exp.PrepareSymbolic(gen, s.Relax, s.MaxWidth)
		lu, err := factor.FactorizeShifted(pipe.An.A, complex(s.ZRe, s.ZIm), pipe.An.BP)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("distrun: shifted factorization of %s: %w", s.MatrixName, err)
		}
		pipe.LU = lu
	} else if pipe, err = exp.Prepare(gen, s.Relax, s.MaxWidth); err != nil {
		return nil, nil, nil, err
	}
	bal := core.CyclicBalancer
	if s.Balancer != "" {
		if bal, err = core.ParseBalancer(s.Balancer); err != nil {
			return nil, nil, nil, fmt.Errorf("distrun: %w", err)
		}
	}
	plan := core.NewPlanConfig(pipe.An.BP, procgrid.New(s.PR, s.PC), core.PlanConfig{
		Scheme: s.Scheme, Seed: s.Seed, Symmetric: pipe.LU.Symmetric,
		Balancer: bal,
		Topo:     core.Topology{CoresPerNode: s.CoresPerNode},
	})
	return pipe, plan, pselinv.NewEngine(plan, pipe.LU), nil
}
