package pselinv

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pselinv/internal/blockmat"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/sparse"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/digests.golden")

// resultDigest is a SHA-256 over every A⁻¹ block in slot order, each word by
// its bits: two results digest alike only when they are bit-identical.
func resultDigest(ainv *blockmat.BlockMatrix) string {
	h := sha256.New()
	var buf [8]byte
	ainv.Range(func(i, j int, b *dense.Matrix) {
		binary.LittleEndian.PutUint64(buf[:], uint64(i)<<32|uint64(j))
		h.Write(buf[:])
		for _, v := range b.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	})
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestResultDigests pins the bits of the parallel result: for two patterns,
// real-symmetric, complex-symmetric and asymmetrized values (the last on the
// general plan), every scheme and three grids, the digest of A⁻¹ must equal
// the committed one, sequential and DAG alike. A change to how messages are
// grouped, scheduled or folded that moves a single bit fails it; -update
// rewrites testdata/digests.golden on purpose.
func TestResultDigests(t *testing.T) {
	withPoolWorkers(t, 2)
	type input struct {
		name string
		g    func() *sparse.Generated
		opt  etree.Options
	}
	inputs := []input{
		{"grid2d12", func() *sparse.Generated { return sparse.Grid2D(12, 12, 1) }, etree.Options{Relax: 2, MaxWidth: 4}},
		{"dg2d6x2", func() *sparse.Generated { return sparse.DG2D(6, 6, 2, 1) }, etree.Options{Relax: 2, MaxWidth: 8}},
	}
	var got strings.Builder
	for _, in := range inputs {
		for _, values := range []string{"real", "complex", "asym"} {
			g := in.g()
			if values == "asym" {
				g = sparse.Asymmetrize(g, 7, 0.4)
			}
			perm := ordering.Compute(ordering.NestedDissection, g.A, g.Geom)
			an := etree.Analyze(g.A.Permute(perm), perm, in.opt)
			lu, err := factor.Factorize(an.A, an.BP)
			if values == "complex" {
				lu, err = factor.FactorizeShifted(an.A, complex(0.5, 1.5), an.BP)
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", in.name, values, err)
			}
			for _, scheme := range core.AllSchemes() {
				for _, pr := range []int{2, 3, 4} {
					plan := core.NewPlanConfig(an.BP, procgrid.New(pr, pr), core.PlanConfig{Scheme: scheme, Seed: 1,
						Symmetric: lu.Symmetric, Topo: core.Topology{CoresPerNode: 4}})
					label := fmt.Sprintf("%s/%s/%s/%dx%d", in.name, values, scheme.Slug(), pr, pr)
					var digest string
					for _, dag := range []bool{false, true} {
						eng := NewEngine(plan, lu)
						eng.DAG = dag
						res, err := eng.Run(testTimeout)
						if err != nil {
							t.Fatalf("%s dag=%v: %v", label, dag, err)
						}
						d := resultDigest(res.Ainv)
						res.Release()
						if dag && d != digest {
							t.Errorf("%s: DAG digest %s, sequential %s", label, d, digest)
						}
						digest = d
					}
					fmt.Fprintf(&got, "%s %s\n", label, digest)
				}
			}
		}
	}
	path := filepath.Join("testdata", "digests.golden")
	if *updateDigests {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Errorf("digest moved:\n got %s\nwant %s", gl[i], wl[i])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("%d digest lines, golden has %d", len(gl), len(wl))
		}
	}
}
