package bench

import (
	"bytes"
	"strings"
	"testing"

	"optimus/internal/parallel"
)

// tinyRunner returns a runner at miniature scale with verification on, so
// every experiment path is exercised quickly and exactly.
func tinyRunner(buf *bytes.Buffer, models ...string) *Runner {
	return New(Options{
		Out:     buf,
		Scale:   0.04,
		Ks:      []int{1, 3},
		Seed:    5,
		Verify:  true,
		Models:  models,
		Repeats: 2,
	})
}

func TestDefaultsApplied(t *testing.T) {
	r := New(Options{})
	if r.opt.Scale != 0.25 || r.opt.Threads != parallel.Resolve(0) || len(r.opt.Ks) != 4 || r.opt.Repeats != 4 {
		t.Fatalf("defaults not applied: %+v", r.opt)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := New(Options{}).Run("fig99"); err == nil {
		t.Fatal("expected unknown-experiment error")
	}
}

func TestExperimentListMatchesDispatch(t *testing.T) {
	for _, id := range Experiments() {
		// Dispatch must recognize every listed id; run only the cheapest to
		// keep the check fast — the rest are covered by dedicated tests.
		if id == "table1" {
			var buf bytes.Buffer
			if err := tinyRunner(&buf).Run(id); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}
	}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyRunner(&buf).Table1(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table I", "netflix-dsgd-50", "kdd-ref-51", "glove-200", "normSkew"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 output missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "\n"); got < 24 {
		t.Fatalf("table1 should list 23 models, got %d lines", got)
	}
}

func TestFig2(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyRunner(&buf).Fig2(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig 2", "netflix-dsgd-50", "r2-nomad-50", "LEMP/BMM"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig4(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyRunner(&buf, "netflix-dsgd-10").Fig4(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig 4", "LEMP", "FEXIPRO-SI", "MAXIMUS", "construct"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig4 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig5RowsStructured(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner(&buf, "netflix-dsgd-10", "r2-nomad-10")
	rows, err := r.Fig5Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 models × 2 Ks
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, row := range rows {
		if len(row.Seconds) != 5 {
			t.Fatalf("row %s/%d has %d strategies", row.Model, row.K, len(row.Seconds))
		}
		best := row.Seconds[row.Fastest]
		for sn, sec := range row.Seconds {
			if sec <= 0 {
				t.Fatalf("non-positive time for %s", sn)
			}
			if sec < best {
				t.Fatalf("fastest mislabeled: %s=%v < %s=%v", sn, sec, row.Fastest, best)
			}
		}
	}
	if err := r.Fig5(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "winner counts") {
		t.Fatal("fig5 output missing summary")
	}
}

func TestFig6(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyRunner(&buf, "netflix-dsgd-10").Fig6(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig 6", "threads", "BMM", "MAXIMUS", "LEMP"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig6 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig7(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyRunner(&buf, "kdd-ref-51").Fig7(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig 7", "BMM", "MAXIMUS", "LEMP", "coefficient of variation"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig7 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig8(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyRunner(&buf, "netflix-nomad-50").Fig8(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig 8", "cluster", "construct", "traverse", "speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig8 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner(&buf, "netflix-dsgd-10", "r2-nomad-10")
	results, err := r.Table2Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d pairings, want 5", len(results))
	}
	for _, res := range results {
		if res.Accuracy < 0 || res.Accuracy > 1 {
			t.Fatalf("%s: accuracy %v out of range", res.Label, res.Accuracy)
		}
		if res.Combos != 4 { // 2 models × 2 Ks
			t.Fatalf("%s: %d combos, want 4", res.Label, res.Combos)
		}
		if res.Optimus <= 0 || res.Oracle <= 0 {
			t.Fatalf("%s: non-positive speedups %+v", res.Label, res)
		}
		// OPTIMUS (with overhead) can never beat the zero-overhead oracle
		// by construction of the arithmetic.
		if res.Optimus > res.Oracle*1.0001 {
			t.Fatalf("%s: OPTIMUS %v exceeds oracle %v", res.Label, res.Optimus, res.Oracle)
		}
	}
	// Three-way row reports no index-only column.
	if results[4].IndexOnly != 0 {
		t.Fatalf("three-way row should have no index-only speedup: %+v", results[4])
	}
	if err := r.Table2(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "BMM + LEMP + MAXIMUS") {
		t.Fatal("table2 output missing three-way row")
	}
}

func TestAblationClustering(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyRunner(&buf, "r2-nomad-10").AblationClustering(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"k-means", "spherical", "θuc"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation-clustering missing %q:\n%s", want, out)
		}
	}
}

func TestAblationParams(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyRunner(&buf, "netflix-nomad-10").AblationParams(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"block size", "clusters |C|", "iterations"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation-params missing %q:\n%s", want, out)
		}
	}
}

func TestAblationTTest(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyRunner(&buf, "netflix-dsgd-10").AblationTTest(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"t-test", "examined", "agree"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation-ttest missing %q:\n%s", want, out)
		}
	}
}

func TestAblationCostModel(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyRunner(&buf, "netflix-dsgd-10").AblationCostModel(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cost model", "predictedGEMM", "heapStage", "GFLOP"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation-costmodel missing %q:\n%s", want, out)
		}
	}
}

func TestAblationConeTree(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyRunner(&buf, "r2-nomad-10").AblationConeTree(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cone tree", "ConeTree", "LEMP/Cone"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation-conetree missing %q:\n%s", want, out)
		}
	}
}

func TestAblationApprox(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyRunner(&buf, "r2-nomad-10").AblationApprox(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"approx", "recall", "speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation-approx missing %q:\n%s", want, out)
		}
	}
}
