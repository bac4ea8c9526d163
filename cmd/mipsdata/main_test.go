package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"optimus/internal/dataset"
	"optimus/internal/mat"
)

// asMainEnv makes the test binary run main() instead of the tests, so each
// test drives the real command — flag parsing, output and exit codes — in a
// child process.
const asMainEnv = "MIPSDATA_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes the command with args and returns its stdout, stderr and
// exit code.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

func TestList(t *testing.T) {
	out, _, code := run(t, "list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if want := strings.Join(dataset.Names(), "\n") + "\n"; out != want {
		t.Fatalf("list printed %q, want %q", out, want)
	}
}

func generate(t *testing.T, name string, scale float64) (dataset.Config, *dataset.Model) {
	t.Helper()
	cfg, err := dataset.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Scale(scale)
	m, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, m
}

func TestInfo(t *testing.T) {
	out, _, code := run(t, "info", "-model", "r2-nomad-10", "-scale", "0.01")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	cfg, m := generate(t, "r2-nomad-10", 0.01)
	want := fmt.Sprintf("model=%s users=%d items=%d factors=%d ",
		cfg.Name, m.Users.Rows(), m.Items.Rows(), cfg.Factors)
	if !strings.HasPrefix(out, want) {
		t.Fatalf("info printed %q, want prefix %q", out, want)
	}
}

func TestGenWritesReadableModel(t *testing.T) {
	dir := t.TempDir()
	if _, stderr, code := run(t, "gen", "-model", "r2-nomad-10", "-scale", "0.01", "-dir", dir); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	_, m := generate(t, "r2-nomad-10", 0.01)
	for _, f := range []struct {
		file string
		want *mat.Matrix
	}{
		{"r2-nomad-10.users.omx", m.Users},
		{"r2-nomad-10.items.omx", m.Items},
	} {
		got, err := mat.ReadBinaryFile(filepath.Join(dir, f.file))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(f.want, 0) {
			t.Fatalf("%s does not read back as the generated matrix", f.file)
		}
	}
}

func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"missing-model", []string{"info"}, 2},
		{"unknown-model", []string{"info", "-model", "no-such-model"}, 1},
		{"unknown-command", []string{"bogus"}, 2},
		{"no-command", nil, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, code := run(t, tc.args...); code != tc.code {
				t.Fatalf("exit %d, want %d", code, tc.code)
			}
		})
	}
}
