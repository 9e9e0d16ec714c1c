package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself instead of the tests when
// MATGEN_RUN_MAIN is set, so that a test can re-execute the test binary as
// matgen and check how it exits.
func TestMain(m *testing.M) {
	if os.Getenv("MATGEN_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestAnalyzeEmptyMatrixFails: -analyze of a generated matrix with no rows
// exits 1 naming the empty matrix; it used to panic in the symbolic
// analysis ("etree: empty supernode").
func TestAnalyzeEmptyMatrixFails(t *testing.T) {
	for _, args := range [][]string{
		{"-matrix", "grid2d", "-nx", "0", "-ny", "0", "-analyze"},
		{"-matrix", "banded", "-n", "0", "-analyze"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "MATGEN_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), ": empty matrix") ||
			strings.Contains(string(out), "panic") {
			t.Errorf("matgen %v: %v, output:\n%s", args, err, out)
		}
	}
}

// TestNegativeExtentIsUsageError: a negative -nx/-ny/-nz/-dofs/-n exits 2
// naming the flag; the generators used to panic on it ("makeslice: len out
// of range", "sparse: missing diagonal at column 0").
func TestNegativeExtentIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-matrix", "grid2d", "-nx", "-1"},
		{"-matrix", "fe3d", "-nz", "-3"},
		{"-matrix", "dg2d", "-dofs", "-2"},
		{"-matrix", "banded", "-n", "-4"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "MATGEN_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "is negative") ||
			strings.Contains(string(out), "panic") {
			t.Errorf("matgen %v: %v, output:\n%s", args, err, out)
		}
	}
}
