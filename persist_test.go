package optimus

// The snapshot equivalence suite: every solver's Save/Load round-trip must
// reproduce the built index exactly. Because Load reconstructs bit-identical
// state (and re-derives only deterministic functions of it), the tests
// demand entry-for-entry equality of query results — not tolerance-based
// agreement — plus a pass through the independent exactness oracle, and
// generation preservation. The sharded composite is additionally exercised
// across partitioners and shard counts, with the two-wave floor-seeded
// query re-checked on the restored manifest.

import (
	"bytes"
	"fmt"
	"testing"

	"optimus/internal/mips"
	"optimus/internal/mutlog"
	"optimus/internal/shard"
)

// lcgMatrix fills a matrix from a fixed linear congruential stream — tiny
// deterministic corpora that never change across platforms or releases
// (the golden snapshot tests depend on that).
func lcgMatrix(rows, cols int, seed uint64) *Matrix {
	m := NewMatrix(rows, cols)
	s := seed
	for r := 0; r < rows; r++ {
		row := m.Row(r)
		for c := range row {
			s = s*6364136223846793005 + 1442695040888963407
			row[c] = float64(int64(s>>33))/float64(1<<30) - 1
		}
	}
	return m
}

// persistCorpus is the equivalence suite's shared corpus: big enough that
// every solver builds non-trivial structure (clusters, buckets, tree
// splits), small enough that the full matrix of round-trips stays fast.
func persistCorpus() (*Matrix, *Matrix) {
	return lcgMatrix(40, 8, 11), lcgMatrix(120, 8, 29)
}

// persistSolvers enumerates one factory per snapshot kind (the sharded
// composite has its own matrix below).
func persistSolvers() map[string]func() Solver {
	return map[string]func() Solver{
		"Naive":       func() Solver { return NewNaive() },
		"BMM":         func() Solver { return NewBMM(BMMConfig{}) },
		"MAXIMUS":     func() Solver { return NewMaximus(MaximusConfig{Seed: 1}) },
		"LEMP":        func() Solver { return NewLEMP(LEMPConfig{Seed: 1}) },
		"FEXIPRO-SI":  func() Solver { return NewFexipro(FexiproConfig{Variant: FexiproSI}) },
		"FEXIPRO-SIR": func() Solver { return NewFexipro(FexiproConfig{Variant: FexiproSIR}) },
	}
}

func sameEntries(t *testing.T, want, got [][]Entry) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%d users vs %d", len(want), len(got))
	}
	for u := range want {
		if len(want[u]) != len(got[u]) {
			t.Fatalf("user %d: %d entries vs %d", u, len(want[u]), len(got[u]))
		}
		for i := range want[u] {
			if want[u][i] != got[u][i] {
				t.Fatalf("user %d rank %d: saved %+v, restored %+v", u, i, want[u][i], got[u][i])
			}
		}
	}
}

func roundTrip(t *testing.T, built Solver, fresh Solver) Solver {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveSolver(&buf, built); err != nil {
		t.Fatalf("save: %v", err)
	}
	if err := fresh.(Persister).Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("load: %v", err)
	}
	return fresh
}

func TestSaveLoadEquivalence(t *testing.T) {
	users, items := persistCorpus()
	const k = 10
	for name, mk := range persistSolvers() {
		t.Run(name, func(t *testing.T) {
			built := mk()
			if err := built.Build(users, items); err != nil {
				t.Fatal(err)
			}
			want, err := built.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			loaded := roundTrip(t, built, mk())
			got, err := loaded.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			sameEntries(t, want, got)
			if err := VerifyAll(users, items, got, k, 1e-8); err != nil {
				t.Fatalf("restored results fail the oracle: %v", err)
			}
			// A served solver's generation survives the round trip; a
			// baseline (FEXIPRO) has none.
			if bm, ok := built.(ItemMutator); ok {
				if lm := loaded.(ItemMutator); bm.Generation() != lm.Generation() {
					t.Fatalf("generation %d saved, %d restored", bm.Generation(), lm.Generation())
				}
			}
			// LoadSolver (registry dispatch) must agree with Load-into-fresh.
			var buf bytes.Buffer
			if err := SaveSolver(&buf, built); err != nil {
				t.Fatal(err)
			}
			any, err := LoadSolver(&buf)
			if err != nil {
				t.Fatal(err)
			}
			got2, err := any.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			sameEntries(t, want, got2)
		})
	}
}

func TestSaveLoadEquivalenceSharded(t *testing.T) {
	users, items := persistCorpus()
	const k = 10
	parts := map[string]func() shard.Partitioner{
		"contiguous": ShardContiguous,
		"by-norm":    ShardByNorm,
	}
	for pname, part := range parts {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/S=%d", pname, shards), func(t *testing.T) {
				cfg := ShardedConfig{
					Shards:      shards,
					Partitioner: part(),
					Factory:     func() Solver { return NewLEMP(LEMPConfig{Seed: 1}) },
				}
				built := NewSharded(cfg)
				if err := built.Build(users, items); err != nil {
					t.Fatal(err)
				}
				want, err := built.QueryAll(k)
				if err != nil {
					t.Fatal(err)
				}
				loaded := roundTrip(t, built, NewSharded(cfg)).(*Sharded)
				got, err := loaded.QueryAll(k)
				if err != nil {
					t.Fatal(err)
				}
				sameEntries(t, want, got)
				if err := VerifyAll(users, items, got, k, 1e-8); err != nil {
					t.Fatalf("restored results fail the oracle: %v", err)
				}
				if built.Generation() != loaded.Generation() {
					t.Fatalf("generation %d saved, %d restored", built.Generation(), loaded.Generation())
				}
				// The restored manifest must still answer floor-seeded queries
				// (the two-wave cross-shard path): seed each user with their
				// own k-th score and demand the seeded result be the exact
				// at-or-above-floor prefix of the unseeded one.
				userIDs := make([]int, users.Rows())
				floors := make([]float64, users.Rows())
				for u := range userIDs {
					userIDs[u] = u
					if len(want[u]) > 0 {
						floors[u] = want[u][len(want[u])-1].Score
					}
				}
				seeded, err := loaded.QueryCtx(nil, userIDs, k, QueryOptions{Floors: floors})
				if err != nil {
					t.Fatal(err)
				}
				if err := mips.VerifyFloorPrefix(got, seeded, floors); err != nil {
					t.Fatalf("restored floor query: %v", err)
				}
			})
		}
	}
}

// TestLoadRejectsAliasing pins the no-aliasing rule: a loaded solver owns
// fresh backing arrays, so scribbling over the snapshot bytes after Load
// must not perturb a single query result.
func TestLoadRejectsAliasing(t *testing.T) {
	users, items := persistCorpus()
	const k = 5
	for name, mk := range persistSolvers() {
		t.Run(name, func(t *testing.T) {
			built := mk()
			if err := built.Build(users, items); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := SaveSolver(&buf, built); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()
			loaded := mk()
			if err := loaded.(Persister).Load(bytes.NewReader(raw)); err != nil {
				t.Fatal(err)
			}
			want, err := loaded.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			for i := range raw {
				raw[i] = ^raw[i]
			}
			got, err := loaded.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			sameEntries(t, want, got)
		})
	}
}

// directApplier is a mutlog.Applier over a bare solver: no serving layer,
// so flushes run on the test goroutine, exclusive of queries.
type directApplier struct{ mips.ItemMutator }

func (d directApplier) Mutate(fn func(mips.ItemMutator) error) error { return fn(d.ItemMutator) }
func (d directApplier) NumItems() int                                { return d.ItemMutator.(mips.Sized).NumItems() }

// TestSnapshotMutateSnapshot drives a full lifecycle across two snapshot
// boundaries: build, save, restore, mutate the restored index through the
// batched mutation log, save again, restore again, and check the final
// index against a fresh build over the mutated corpus with the
// mutable-corpus oracle.
func TestSnapshotMutateSnapshot(t *testing.T) {
	users, items := persistCorpus()
	arrivals := lcgMatrix(9, 8, 83)
	const k = 10
	mk := func() Solver { return NewLEMP(LEMPConfig{Seed: 1}) }

	built := mk()
	if err := built.Build(users, items); err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, built, mk())

	log, err := mutlog.New(directApplier{loaded.(mips.ItemMutator)}, mutlog.Config{MaxEvents: -1, MaxDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Add(arrivals); err != nil {
		t.Fatal(err)
	}
	remove := []int{0, 7, 60, items.Rows(), items.Rows() + 4} // two pending adds among them
	if err := log.Remove(remove); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	corpus := AppendMatrixRows(items, arrivals)
	sorted, err := mips.ValidateRemoveIDs(remove, corpus.Rows())
	if err != nil {
		t.Fatal(err)
	}
	corpus = RemoveMatrixRows(corpus, sorted)

	final := roundTrip(t, loaded, mk())
	if err := VerifyMutation(final, mk(), users, corpus, k, 1e-8); err != nil {
		t.Fatal(err)
	}
	if g := final.(mips.ItemMutator).Generation(); g == 0 {
		t.Fatal("mutated generation not preserved across the second round-trip")
	}
}

// TestSaveBeforeBuild pins the error path: snapshotting an unbuilt solver
// fails cleanly rather than writing a stream Load would choke on.
func TestSaveBeforeBuild(t *testing.T) {
	for name, mk := range persistSolvers() {
		var buf bytes.Buffer
		if err := SaveSolver(&buf, mk()); err == nil {
			t.Errorf("%s: Save before Build succeeded", name)
		}
	}
	var buf bytes.Buffer
	if err := NewSharded(ShardedConfig{}).Save(&buf); err == nil {
		t.Error("Sharded: Save before Build succeeded")
	}
}
