package blas_test

import (
	"testing"

	"optimus/internal/blas"
	"optimus/internal/core"
	"optimus/internal/dataset"
	"optimus/internal/mips"
	"optimus/internal/topk"
)

// TestSolversSameAnswersOnScalarPath runs the two solvers that multiply
// through GemmNT — BMM (chunked GEMM) and MAXIMUS (centroid × items at Build,
// block multiplies at query) — once on the default path and once on the
// scalar tile, and requires the same items with == scores: the kernel may
// change how fast an answer arrives, never one bit of it.
func TestSolversSameAnswersOnScalarPath(t *testing.T) {
	cfg, err := dataset.ByName("netflix-nomad-50")
	if err != nil {
		t.Fatal(err)
	}
	m, err := dataset.Generate(cfg.Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	const k = 10 // 480 users × 178 items (n%8 = 2), f = 50; BMM cuts them into eight chunks
	for _, tc := range []struct {
		name string
		make func() mips.Solver
	}{
		{"BMM", func() mips.Solver { return core.NewBMM(core.BMMConfig{Threads: 2}) }},
		{"MAXIMUS", func() mips.Solver { return core.NewMaximus(core.MaximusConfig{Seed: 1, Threads: 2}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			answers := func() [][]topk.Entry {
				s := tc.make()
				if err := s.Build(m.Users, m.Items); err != nil {
					t.Fatal(err)
				}
				res, err := s.QueryAll(k)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			got := answers()
			var want [][]topk.Entry
			if !blas.WithScalarPath(func() { want = answers() }) {
				t.Skip("no kernel in this build or on this CPU: both runs took the scalar tile")
			}
			if len(got) != len(want) {
				t.Fatalf("%d users on the default path, %d on the scalar path", len(got), len(want))
			}
			for u := range want {
				if len(got[u]) != len(want[u]) {
					t.Fatalf("user %d: %d entries vs %d", u, len(got[u]), len(want[u]))
				}
				for i, w := range want[u] {
					if g := got[u][i]; g.Item != w.Item || g.Score != w.Score {
						t.Fatalf("user %d rank %d: default path %+v, scalar path %+v", u, i, g, w)
					}
				}
			}
		})
	}
}
