package mips_test

import (
	"fmt"
	"math"
	"testing"

	"optimus/internal/conetree"
	"optimus/internal/dataset"
	"optimus/internal/fexipro"
	"optimus/internal/mips"
)

// TestBaselinesEqualNaive: the cone tree and both FEXIPRO variants prune on
// bounds but score every candidate they keep in Naive's order, so their
// answers are == Naive's row for row, unfloored and floored, at any thread
// count.
func TestBaselinesEqualNaive(t *testing.T) {
	solvers := map[string]func(threads int) mips.Solver{
		"ConeTree": func(threads int) mips.Solver {
			return conetree.New(conetree.Config{Threads: threads})
		},
		"FEXIPRO-SI": func(threads int) mips.Solver {
			return fexipro.New(fexipro.Config{Variant: fexipro.SI, Threads: threads})
		},
		"FEXIPRO-SIR": func(threads int) mips.Solver {
			return fexipro.New(fexipro.Config{Variant: fexipro.SIR, Threads: threads})
		},
	}
	for _, name := range []string{"netflix-nomad-25", "r2-nomad-50", "kdd-nomad-50", "glove-50"} {
		cfg, err := dataset.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := dataset.Generate(cfg.Scale(0.05))
		if err != nil {
			t.Fatal(err)
		}
		naive := mips.NewNaive()
		if err := naive.Build(m.Users, m.Items); err != nil {
			t.Fatal(err)
		}
		ids := mips.AllUserIDs(m.Users.Rows())
		for _, k := range []int{1, 10, 50} {
			want, err := naive.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			floors := make([]float64, len(ids))
			for i := range floors {
				switch i % 4 {
				case 0:
					floors[i] = math.Inf(-1)
				case 1:
					floors[i] = want[i][k-1].Score
				case 2:
					floors[i] = want[i][k/2].Score
				default:
					floors[i] = want[i][0].Score + 1
				}
			}
			for sname, solver := range solvers {
				for _, threads := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%s/k=%d/threads=%d", name, sname, k, threads), func(t *testing.T) {
						s := solver(threads)
						if err := s.Build(m.Users, m.Items); err != nil {
							t.Fatal(err)
						}
						got, err := s.QueryAll(k)
						if err != nil {
							t.Fatal(err)
						}
						if err := mips.SameRows(want, got); err != nil {
							t.Fatalf("unfloored: %v", err)
						}
						got, err = s.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors})
						if err != nil {
							t.Fatal(err)
						}
						if err := mips.VerifyFloorPrefix(want, got, floors); err != nil {
							t.Fatalf("floored: %v", err)
						}
					})
				}
			}
		}
	}
}
