package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself instead of the tests when
// PSELINV_RUN_MAIN is set, so that a test can re-execute the test binary as
// pselinv and check how it exits.
func TestMain(m *testing.M) {
	if os.Getenv("PSELINV_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestNegativeExtentIsUsageError: a negative generator extent exits 2
// naming the flag, as -procs 0 does; the generators used to panic on it.
func TestNegativeExtentIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-nx", "-2"},
		{"-matrix", "grid3d", "-nz", "-1"},
		{"-matrix", "dg2d", "-dofs", "-3"},
		{"-matrix", "banded", "-n", "-5"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "PSELINV_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "is negative") ||
			strings.Contains(string(out), "panic") {
			t.Errorf("pselinv %v: %v, output:\n%s", args, err, out)
		}
	}
}

// TestRetiredBalancerIsUsageError: the retired nnz and subtree balancers
// exit 2 naming the valid slugs.
func TestRetiredBalancerIsUsageError(t *testing.T) {
	for _, bal := range []string{"nnz", "subtree"} {
		cmd := exec.Command(os.Args[0], "-balancer", bal)
		cmd.Env = append(os.Environ(), "PSELINV_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "(valid: cyclic|work)") {
			t.Errorf("pselinv -balancer %s: %v, output:\n%s", bal, err, out)
		}
	}
}

// TestUnknownNameListsValidSet: an unknown -order or -matrix exits 2 listing
// every valid name, as an unknown -scheme or -balancer does; both used to
// name only the bad value.
func TestUnknownNameListsValidSet(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-order", "amd", "-nx", "3", "-ny", "3"}, "(valid: natural|rcm|nd|mmd)"},
		{[]string{"-matrix", "randomsym"}, "(valid: grid2d|grid3d|dg2d|fe3d|banded|random)"},
	} {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "PSELINV_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), c.want) {
			t.Errorf("pselinv %v: %v, output:\n%s", c.args, err, out)
		}
	}
}
