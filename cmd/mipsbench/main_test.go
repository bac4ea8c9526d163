package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"optimus/internal/bench"
)

// asMainEnv makes the test binary run main() instead of the tests, so each
// test drives the real command — flag parsing, output and exit codes — in a
// child process.
const asMainEnv = "MIPSBENCH_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes the command with args and returns its stdout and exit code.
func run(t *testing.T, args ...string) (stdout string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), code
}

func TestListPrintsExperiments(t *testing.T) {
	out, code := run(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if want := "experiments: " + strings.Join(bench.Experiments(), " ") + "\n"; out != want {
		t.Fatalf("-list printed %q, want %q", out, want)
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"bad-k", []string{"-k", "0", "fig2"}},
		{"non-numeric-k", []string{"-k", "1,x", "fig2"}},
		{"no-experiment", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if out, code := run(t, tc.args...); code != 2 {
				t.Fatalf("exit %d, want 2 (stdout %q)", code, out)
			}
		})
	}
}
