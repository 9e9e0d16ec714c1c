package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself instead of the tests when
// PEXSI_RUN_MAIN is set, so that a test can re-execute the test binary as
// pexsi and check how it exits.
func TestMain(m *testing.M) {
	if os.Getenv("PEXSI_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadSizeIsUsageError: a negative extent, a rank count below one and
// an unknown scheme or balancer (the retired hybrid, nnz and subtree
// included) exit 2 with a message. The generators used to panic on the
// first, and -procs -2 ran serially, reporting "16 poles × -2 ranks".
func TestBadSizeIsUsageError(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-nx", "-1"}, "-nx -1 is negative"},
		{[]string{"-dofs", "-2"}, "-dofs -2 is negative"},
		{[]string{"-procs", "-2"}, "need at least 1 rank"},
		{[]string{"-procs", "0", "-batch"}, "need at least 1 rank"},
		{[]string{"-balancer", "nnz"}, "(valid: cyclic|work)"},
		{[]string{"-balancer", "subtree", "-batch"}, "(valid: cyclic|work)"},
		{[]string{"-scheme", "fibonacci"}, "unknown scheme"},
		{[]string{"-scheme", "hybrid"}, "(valid: flat|binary|shifted|toposhifted)"},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "PEXSI_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), tc.want) ||
			strings.Contains(string(out), "panic") {
			t.Errorf("pexsi %v: %v, output:\n%s", tc.args, err, out)
		}
	}
}
