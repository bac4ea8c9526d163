package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The tables in spec.go and BENCHMARK.json are the same vocabulary; the
// driver reads one, the program prints the other.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range b.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		unique(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, spec.go %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %q: unit %q bound %v out of contract", m.Name, m.Unit, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.go %d (max 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		unique(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, spec.go %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer %q: unit %q out of contract", m.Name, m.Unit)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of [1,60]", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
}

func metricNames(line driverLine) []string {
	names := make([]string, 0, len(line.Metrics))
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func tableNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload at smoke size: once untraced and twice
// traced. It checks what does not depend on the clock — the printed metric
// names, answer correctness, the span forest, and that deterministic counts
// repeat — and the contrasts the workloads were chosen for.
func TestSmoke(t *testing.T) {
	layer := map[string]map[string]float64{}
	for _, w := range workloads {
		o := runOpts{workload: w, seed: 5, seconds: 0.3, smoke: true}
		plain, err := run(o)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		line := driverResult(plain)
		if got, want := metricNames(line), tableNames(endToEnd); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("%s: untraced run prints %v, want %v", w.Name, got, want)
		}
		if !line.Correct || line.Attempted < 1 {
			t.Fatalf("%s: correct=%v attempted=%d wrong=%d", w.Name, line.Correct, line.Attempted, plain.Wrong)
		}
		for name, m := range line.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
			}
		}

		o.traced = true
		var lines [2]driverLine
		for pass := range lines {
			traced, err := run(o)
			if err != nil {
				t.Fatalf("%s (traced): %v", w.Name, err)
			}
			if err := checkSpans(traced.Spans); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if len(traced.Spans) == 0 {
				t.Fatalf("%s: traced run recorded no spans", w.Name)
			}
			lines[pass] = driverResult(traced)
			if !lines[pass].Correct {
				t.Fatalf("%s (traced): %d wrong answers", w.Name, traced.Wrong)
			}
		}
		if got, want := metricNames(lines[0]), tableNames(perLayer); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("%s: traced run prints %v, want %v", w.Name, got, want)
		}
		layer[w.Name] = map[string]float64{}
		for _, d := range perLayer {
			a, b := lines[0].Metrics[d.Name].Value, lines[1].Metrics[d.Name].Value
			layer[w.Name][d.Name] = a
			if d.Det && a != b {
				t.Errorf("%s: deterministic count %s = %v then %v", w.Name, d.Name, a, b)
			}
		}
	}
	// The wire is on serve-wired's path and off serve-churn's; writes are
	// the other way round; the batch workloads touch neither.
	for _, c := range []struct {
		workload, metric string
		positive         bool
	}{
		{"serve-wired", "transport.calls_per_user", true},
		{"serve-churn", "transport.calls_per_user", false},
		{"serve-churn", "mutlog.flushes", true},
		{"serve-wired", "mutlog.flushes", false},
		{"batch-dense", "shard.scan_per_user", false},
		{"batch-dense", "core.bmm_scan_per_user", true},
		{"batch-skewed", "conetree.scan_per_user", true},
		{"serve-wired", "core.bmm_scan_per_user", false},
	} {
		if got := layer[c.workload][c.metric]; (got > 0) != c.positive {
			t.Errorf("%s: %s = %v, want positive=%v", c.workload, c.metric, got, c.positive)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "answers_per_s", Unit: "1/s", Better: "higher", Bound: 0.08}
	det := metricDef{Name: "shard.scan_per_user", Unit: "count", Better: "lower", Det: true}
	tight := func(v float64) summary { return summary{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 10} }
	loose := func(v float64) summary { return summary{Value: v, Q1: v * 0.9, Q3: v * 1.1, N: 10} }
	for _, c := range []struct {
		d    metricDef
		a, b summary
		want string
	}{
		{lower, tight(10), tight(10.5), vSame},
		{lower, tight(10), tight(11.5), vWorse},
		{lower, tight(10), tight(8.5), vBetter},
		{lower, tight(10), loose(10.5), vUnresolved},
		{lower, tight(10), loose(11.5), vUnresolved}, // beyond the bound, inside the spread
		{lower, loose(10), tight(14), vWorse},        // beyond both
		{higher, tight(1000), tight(900), vWorse},
		{higher, tight(1000), tight(1100), vBetter},
		{higher, tight(1000), tight(950), vSame},
		{det, tight(128), tight(128), vSame},
		{det, tight(128), tight(129), vDiff},
		{metricDef{Name: "blas.dot_ns", Better: "lower"}, tight(40), tight(80), vInfo},
	} {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: verdict %s, want %s", c.d.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}

	file := func(lat float64, failed int64) *resultFile {
		return &resultFile{Schema: resultSchema, Workloads: []workloadResult{{
			Name: "serve-wired", Attempted: 1000, Failed: failed, Correct: true,
			EndToEnd: map[string]summary{"lat_p50_ms": tight(lat)},
			PerLayer: map[string]summary{"shard.scan_per_user": tight(128)},
		}}}
	}
	var out bytes.Buffer
	if rc := compareFiles(file(10, 0), file(10.2, 0), &out); rc != 0 {
		t.Errorf("A/A compare exits %d:\n%s", rc, out.String())
	}
	if rc := compareFiles(file(10, 0), file(13, 0), &out); rc == 0 {
		t.Error("a 30 % slower lat_p50_ms must exit non-zero")
	}
	if rc := compareFiles(file(10, 0), file(10, 3), &out); rc == 0 {
		t.Error("more failed operations must exit non-zero")
	}
}

func TestDriverModeFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	rc := realMain([]string{"--workload", "batch-dense", "--seed", "9", "--seconds", "0.2", "--trace", "0", "-smoke"}, &stdout, &stderr)
	if rc != 0 {
		t.Fatalf("exit %d: %s", rc, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, stdout.String())
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("driver line lacks %q", k)
		}
	}
	if len(line) != 4 {
		t.Errorf("driver line has %d keys, want exactly 4", len(line))
	}
	if rc := realMain([]string{"--workload", "nope"}, &stdout, &stderr); rc == 0 {
		t.Error("an unknown workload must exit non-zero")
	}
}
