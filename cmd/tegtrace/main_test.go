package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestFatalReachesStderr runs tegtrace in a child process for each bad
// invocation: the child must exit 1 and say why on stderr, which the
// Warn-level slog default must not swallow.
func TestFatalReachesStderr(t *testing.T) {
	if args := os.Getenv("TEGTRACE_CHILD_ARGS"); args != "" {
		os.Args = append([]string{"tegtrace"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct{ args, want string }{
		{"-cycle nope", `unknown cycle "nope"`},
		{"-synth profile=urban -duration 30", "cannot be combined with -duration"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestFatalReachesStderr$")
		cmd.Env = append(os.Environ(), "TEGTRACE_CHILD_ARGS="+tc.args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("tegtrace %s: exited with %v, want exit status 1; stderr:\n%s", tc.args, err, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), "tegtrace: ") || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("tegtrace %s: stderr does not say %q:\n%s", tc.args, tc.want, stderr.String())
		}
	}
}
