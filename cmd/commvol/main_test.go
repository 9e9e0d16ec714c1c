package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pselinv/internal/core"
	"pselinv/internal/exp"
	"pselinv/internal/procgrid"
)

// runQuick is `commvol -quick <flags...> -schemes <schemes>` captured.
func runQuick(t *testing.T, schemes []core.Scheme, flags ...string) string {
	t.Helper()
	for _, name := range append(flags, "quick") {
		if err := flag.Set(name, "true"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { flag.Set(name, "false") })
	}
	var b bytes.Buffer
	if err := run(&b, schemes, core.CyclicBalancer); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestAllQuickGolden pins every table and figure of `commvol -all -quick`
// byte for byte. The golden's rows are the ones the parent of the
// plan-derived tables printed from engine-measured counters for the same
// flags, so a drift here is a drift of the plan from what the engine moved.
// `make tables QUICK=1` diffs the built binary against the same file;
// PSELINV_UPDATE_GOLDEN=1 regenerates it.
func TestAllQuickGolden(t *testing.T) {
	got := runQuick(t, core.Schemes(), "table1", "table2", "fig4", "fig5", "fig6", "fig7")
	goldenPath := filepath.Join("testdata", "all-quick.golden")
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
		t.Errorf("`commvol -all -quick` drifted from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

// section returns the part of out from the header starting with title up to
// the next "== " header.
func section(out, title string) string {
	i := strings.Index(out, "== "+title)
	if i < 0 {
		return ""
	}
	rest := out[i+3:]
	if j := strings.Index(rest, "\n== "); j >= 0 {
		rest = rest[:j]
	}
	return rest
}

// scales maps each "-- scheme --" block of a figure section to its heat
// map's scale legend.
func scales(sec string) map[string]string {
	out := map[string]string{}
	scheme := ""
	for _, line := range strings.Split(sec, "\n") {
		if strings.HasPrefix(line, "-- ") {
			scheme = strings.Trim(line, "- ")
		} else if strings.HasPrefix(line, "scale:") {
			out[scheme] = line
		}
	}
	return out
}

// TestFigurePrintersAnySchemeList: the figure printers pick Flat and Shifted
// by scheme, not by position, so every -schemes list draws every figure —
// Figure 5 on the scale Flat and Shifted share when both are listed and on
// each map's own otherwise, Figure 6's grid comparison only against a Flat
// row. (`-fig5 -schemes flat,shifted` used to index past the list, and a
// reordered list shared the scale of the wrong pair.)
func TestFigurePrintersAnySchemeList(t *testing.T) {
	legend := func(lo, hi float64) string {
		return fmt.Sprintf("scale: ' '=%.3f .. '@'=%.3f", lo, hi)
	}
	for _, schemes := range [][]core.Scheme{
		core.Schemes(),
		{core.FlatTree, core.ShiftedBinaryTree},
		{core.ShiftedBinaryTree, core.BinaryTree, core.FlatTree},
		{core.BinaryTree, core.FlatTree},
		{core.ShiftedBinaryTree},
		{core.TopoShiftedTree, core.ShiftedBinaryTree},
	} {
		t.Run(fmt.Sprint(schemes), func(t *testing.T) {
			out := runQuick(t, schemes, "fig4", "fig5", "fig6", "fig7")

			// -quick stays set until the subtest's cleanup.
			pipe := exp.PrepareSymbolic(audikwStandin(), exp.DefaultRelax, exp.DefaultMaxWidth)
			ms := exp.PlanVolumes(pipe, procgrid.New(12, 12), schemes, core.PlanConfig{Seed: 1})
			want := map[string]string{}
			for _, m := range ms {
				s := m.ColBcastSummary()
				want[m.Scheme.String()] = legend(s.Min, s.Max)
			}
			flat, shifted := byScheme(ms, core.FlatTree), byScheme(ms, core.ShiftedBinaryTree)
			if flat != nil && shifted != nil {
				a, b := flat.ColBcastSummary(), shifted.ColBcastSummary()
				shared := legend(min(a.Min, b.Min), max(a.Max, b.Max))
				want[core.FlatTree.String()], want[core.ShiftedBinaryTree.String()] = shared, shared
			}
			got := scales(section(out, "Figure 5"))
			if len(got) != len(schemes) {
				t.Errorf("Figure 5 drew %d maps for %d schemes:\n%s", len(got), len(schemes), out)
			}
			for scheme, w := range want {
				if got[scheme] != w {
					t.Errorf("Figure 5 %s: legend %q, want %q", scheme, got[scheme], w)
				}
			}

			for _, m := range ms {
				if !strings.Contains(section(out, "Figure 4"), "-- "+m.Scheme.String()+" --") {
					t.Errorf("Figure 4 lacks %v", m.Scheme)
				}
				if drawn := strings.Contains(section(out, "Figure 7"), "-- "+m.Scheme.String()+" --"); drawn == (m.Scheme == core.BinaryTree) {
					t.Errorf("Figure 7 drew %v: %v", m.Scheme, drawn)
				}
			}
			if compared := strings.Contains(section(out, "Figure 6"), "compare 12x12"); compared != (flat != nil) {
				t.Errorf("Figure 6 compared against the main grid: %v; Flat listed: %v", compared, flat != nil)
			}
		})
	}
}

// TestMain runs the command itself instead of the tests when
// COMMVOL_RUN_MAIN is set, so that a test can re-execute the test binary
// as commvol and check how it exits.
func TestMain(m *testing.M) {
	if os.Getenv("COMMVOL_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadGridIsUsageError: a grid without rows, or with a negative column
// count, is a usage error (exit 2 with a message) — `-pr 0` used to panic
// in procgrid.New and `-pc -1` to run a square grid.
func TestBadGridIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-table1", "-quick", "-pr", "0"},
		{"-table1", "-quick", "-pr", "-3"},
		{"-table1", "-quick", "-pc", "-1"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "COMMVOL_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.HasPrefix(string(out), "commvol: -p") {
			t.Errorf("commvol %v: %v, output:\n%s", args, err, out)
		}
	}
}

// TestRetiredBalancerIsUsageError: the retired nnz and subtree balancers
// exit 2 naming the valid slugs.
func TestRetiredBalancerIsUsageError(t *testing.T) {
	for _, bal := range []string{"nnz", "subtree"} {
		cmd := exec.Command(os.Args[0], "-table1", "-quick", "-balancer", bal)
		cmd.Env = append(os.Environ(), "COMMVOL_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "(valid: cyclic|work)") {
			t.Errorf("commvol -balancer %s: %v, output:\n%s", bal, err, out)
		}
	}
}
