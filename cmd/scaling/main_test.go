package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"pselinv/internal/core"
	"pselinv/internal/exp"
)

// TestMain runs the command itself instead of the tests when
// SCALING_RUN_MAIN is set, so that a test can re-execute the test binary as
// scaling and check how it exits.
func TestMain(m *testing.M) {
	if os.Getenv("SCALING_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSeedsBelowOneIsUsageError: a point needs at least one placement seed,
// so -seeds 0 (or negative) is a usage error, exit 2 with a message; it used
// to panic slicing the seed list.
func TestSeedsBelowOneIsUsageError(t *testing.T) {
	for _, seeds := range []string{"0", "-2"} {
		args := []string{"-fig9", "-quick", "-seeds", seeds}
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "SCALING_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.HasPrefix(string(out), "scaling: -seeds") {
			t.Errorf("scaling %v: %v, output:\n%s", args, err, out)
		}
	}
}

// TestReportOneSeed: with -seeds 1 every point's std is zero, and the
// Figure 8 summary used to panic averaging an empty list of std ratios.
func TestReportOneSeed(t *testing.T) {
	ps := []int{64, 1024}
	byP := map[int]map[core.Scheme]*exp.ScalingPoint{}
	for _, p := range ps {
		byP[p] = map[core.Scheme]*exp.ScalingPoint{
			core.FlatTree:          {P: p, Scheme: core.FlatTree, Mean: 2},
			core.ShiftedBinaryTree: {P: p, Scheme: core.ShiftedBinaryTree, Mean: 1},
		}
	}
	report(byP, ps)
}
