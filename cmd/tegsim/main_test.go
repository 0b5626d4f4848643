package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestRefusesIgnoredFlags runs tegsim in a child process for each flag
// combination whose flag the selected mode would ignore: the child must
// exit 1 and name the refused flag on stderr, which the Warn-level slog
// default must not swallow.
func TestRefusesIgnoredFlags(t *testing.T) {
	if args := os.Getenv("TEGSIM_CHILD_ARGS"); args != "" {
		os.Args = append([]string{"tegsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct{ args, want string }{
		{"-study scenarios -seed 3", "cannot be combined with -seed"},
		{"-scenarios -duration 30", "cannot be combined with -duration"},
		{"-scenarios -synth profile=urban", "cannot be combined with -synth"},
		{"-study seeds -scenario-duration 30", "-scenario-duration only applies to -study scenarios"},
		{"-scheme dnor -scenario-duration 30", "-scenario-duration only applies to -study scenarios"},
		{"-matrix spec.json -scenario-duration 30", "cannot be combined with -scenario-duration"},
		{"-scheme dnor -study seeds", "cannot be combined with -study"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRefusesIgnoredFlags$")
		cmd.Env = append(os.Environ(), "TEGSIM_CHILD_ARGS="+tc.args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("tegsim %s: exited with %v, want exit status 1; stderr:\n%s", tc.args, err, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("tegsim %s: stderr does not say %q:\n%s", tc.args, tc.want, stderr.String())
		}
	}
}
