package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// resultSchema versions the result file; compare refuses files of another
// schema.
const resultSchema = "optimus-bench/1"

// environment is the result file's header: enough to tell whether two files
// were measured on comparable machines and builds.
type environment struct {
	Go         string  `json:"go"`
	OS         string  `json:"os"`
	Arch       string  `json:"arch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke,omitempty"`
}

// workloadResult is one workload's section of the result file: the untraced
// run's end-to-end metrics and the per-layer metrics (traced run, except for
// rows the untraced run also measures — those are taken from the untraced
// run, as end-to-end numbers should be).
type workloadResult struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Correct   bool               `json:"correct"`
	Notes     map[string]string  `json:"notes,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]summary `json:"per_layer"`
}

type resultFile struct {
	Schema    string           `json:"schema"`
	Env       environment      `json:"env"`
	Workloads []workloadResult `json:"workloads"`
	// Claim is always null: the change that defines the benchmark claims no
	// gain, and a result file by itself never does.
	Claim *string `json:"claim"`
}

func describeEnv(seed int64, seconds float64, smoke bool) environment {
	return environment{
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: cpuModel(), Commit: gitCommit(), Seed: seed, Seconds: seconds, Smoke: smoke,
	}
}

// cpuModel reads the model name from /proc/cpuinfo ("unknown" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// gitCommit asks git for the checked-out commit ("unknown" outside a
// repository or without git).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// section summarises the samples of one metric table.
func section(r *runResult, defs []metricDef) map[string]summary {
	out := make(map[string]summary, len(defs))
	for _, d := range defs {
		if v, ok := r.Value[d.Name]; ok {
			out[d.Name] = summarize(v, r.Samples[d.Name], d)
		}
	}
	return out
}

// mergeRuns folds a workload's untraced and traced run into its section.
func mergeRuns(w workloadDef, plain, traced *runResult) workloadResult {
	wr := workloadResult{
		Name: w.Name, Why: w.Why,
		Attempted: plain.Attempted + traced.Attempted,
		Failed:    plain.Failed + traced.Failed,
		Correct:   plain.Wrong+traced.Wrong == 0,
		Notes:     map[string]string{},
		EndToEnd:  section(plain, endToEnd),
		PerLayer:  section(traced, perLayer),
	}
	for name, s := range section(plain, perLayer) {
		wr.PerLayer[name] = s
	}
	for k, v := range traced.Notes {
		wr.Notes[k] = v
	}
	for k, v := range plain.Notes {
		wr.Notes[k] = v
	}
	return wr
}

// driverLine is the one-line result the benchmark driver reads.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult renders a run as the driver's line: every end-to-end metric
// for an untraced run, every per-layer metric for a traced one.
func driverResult(r *runResult) driverLine {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	r.fill(defs)
	line := driverLine{Correct: r.Wrong == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]driverMetric, len(defs))}
	for _, d := range defs {
		line.Metrics[d.Name] = driverMetric{Value: r.Value[d.Name], Unit: d.Unit}
	}
	return line
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultSchema)
	}
	return &rf, nil
}

// printTable writes one metric table, in table order.
func printTable(w io.Writer, title string, defs []metricDef, got map[string]summary) {
	fmt.Fprintf(w, "  %s\n", title)
	for _, d := range defs {
		s, ok := got[d.Name]
		if !ok {
			continue
		}
		det := ""
		if d.Det {
			det = " det"
		}
		fmt.Fprintf(w, "    %-34s %14.6g %-8s q1=%-12.6g q3=%-12.6g n=%d%s\n", d.Name, s.Value, d.Unit, s.Q1, s.Q3, s.N, det)
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
