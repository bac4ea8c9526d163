package optimus

import (
	"bytes"
	"testing"
)

// TestPublicAPIEndToEnd exercises the facade exactly the way the README's
// quickstart does: generate a dataset, run every solver through the public
// constructors, and verify exactness.
func TestPublicAPIEndToEnd(t *testing.T) {
	cfg, err := DatasetByName("netflix-dsgd-10")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := GenerateDataset(cfg.Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	solvers := []Solver{
		NewBMM(BMMConfig{}),
		NewMaximus(MaximusConfig{Seed: 1}),
		NewLEMP(LEMPConfig{}),
		NewFexipro(FexiproConfig{Variant: FexiproSI}),
		NewFexipro(FexiproConfig{Variant: FexiproSIR}),
		NewNaive(),
	}
	for _, s := range solvers {
		if err := s.Build(ds.Users, ds.Items); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		res, err := s.QueryAll(k)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := VerifyAll(ds.Users, ds.Items, res, k); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

func TestPublicOptimusRun(t *testing.T) {
	cfg, err := DatasetByName("r2-nomad-10")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := GenerateDataset(cfg.Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	opt := NewOptimus(
		OptimusConfig{SampleFraction: 0.1, L2CacheBytes: 1 << 10, Seed: 2},
		NewMaximus(MaximusConfig{Seed: 2}),
	)
	dec, res, err := opt.Run(ds.Users, ds.Items, 3)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Winner == "" || len(dec.Estimates) != 2 {
		t.Fatalf("malformed decision %+v", dec)
	}
	if err := VerifyAll(ds.Users, ds.Items, res, 3); err != nil {
		t.Fatal(err)
	}
}

func TestPublicMatrixHelpers(t *testing.T) {
	m, err := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if NewMatrix(2, 3).Rows() != 2 {
		t.Fatal("NewMatrix shape wrong")
	}
	var bin bytes.Buffer
	if err := WriteMatrix(&bin, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrix(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(m, 0) {
		t.Fatal("binary round trip failed")
	}
	var csv bytes.Buffer
	if err := WriteMatrixCSV(&csv, m); err != nil {
		t.Fatal(err)
	}
	back2, err := ReadMatrixCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	if !back2.Equal(m, 0) {
		t.Fatal("CSV round trip failed")
	}
}

func TestPublicDatasetRegistry(t *testing.T) {
	if len(Datasets()) != 23 {
		t.Fatalf("Datasets() returned %d configs, want 23", len(Datasets()))
	}
	if _, err := DatasetByName("not-a-model"); err == nil {
		t.Fatal("expected unknown-model error")
	}
}
