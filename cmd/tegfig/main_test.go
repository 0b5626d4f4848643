package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestFatalReachesStderr runs tegfig in a child process on an unknown
// figure: the child must exit 1 and say why on stderr, which the
// Warn-level slog default must not swallow.
func TestFatalReachesStderr(t *testing.T) {
	if args := os.Getenv("TEGFIG_CHILD_ARGS"); args != "" {
		os.Args = append([]string{"tegfig"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFatalReachesStderr$")
	cmd.Env = append(os.Environ(), "TEGFIG_CHILD_ARGS=-fig 9")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("tegfig -fig 9: exited with %v, want exit status 1; stderr:\n%s", err, stderr.String())
	}
	if want := `tegfig: unknown figure "9"`; !strings.Contains(stderr.String(), want) {
		t.Errorf("tegfig -fig 9: stderr does not say %q:\n%s", want, stderr.String())
	}
}
