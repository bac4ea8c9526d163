package parallel_test

// End-to-end determinism of the solvers that ride on the parallel engine:
// BMM and MAXIMUS must return bit-identical top-K results (same item ids,
// same ordering, same scores) at every thread count, because the engine's
// chunk decomposition — and therefore every floating-point accumulation
// order — is independent of the number of workers.

import (
	"reflect"
	"testing"

	"optimus/internal/core"
	"optimus/internal/dataset"
	"optimus/internal/topk"
)

func determinismModel(t *testing.T) *dataset.Model {
	t.Helper()
	cfg, err := dataset.ByName("netflix-dsgd-10")
	if err != nil {
		t.Fatal(err)
	}
	m, err := dataset.Generate(cfg.Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func requireIdentical(t *testing.T, serial, parallel [][]topk.Entry, threads int) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("threads=%d: %d users vs %d", threads, len(parallel), len(serial))
	}
	for u := range serial {
		if !reflect.DeepEqual(serial[u], parallel[u]) {
			t.Fatalf("threads=%d: user %d differs\nserial:   %v\nparallel: %v",
				threads, u, serial[u], parallel[u])
		}
	}
}

func TestBMMParallelMatchesSerial(t *testing.T) {
	m := determinismModel(t)
	const k = 10
	ref := core.NewBMM(core.BMMConfig{Threads: 1})
	if err := ref.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	want, err := ref.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{2, 3, 8} {
		b := core.NewBMM(core.BMMConfig{Threads: threads})
		if err := b.Build(m.Users, m.Items); err != nil {
			t.Fatal(err)
		}
		got, err := b.QueryAll(k)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, want, got, threads)
	}
}

func TestMaximusParallelMatchesSerial(t *testing.T) {
	m := determinismModel(t)
	const k = 10
	ref := core.NewMaximus(core.MaximusConfig{Seed: 1, Threads: 1})
	if err := ref.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	want, err := ref.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{2, 3, 8} {
		mx := core.NewMaximus(core.MaximusConfig{Seed: 1, Threads: threads})
		if err := mx.Build(m.Users, m.Items); err != nil {
			t.Fatal(err)
		}
		// Build must also be thread-count-invariant: same clustering, same
		// sorted lists — otherwise walk order (and thus tie resolution)
		// could differ even with exact results.
		if !reflect.DeepEqual(ref.ClusterOf(), mx.ClusterOf()) {
			t.Fatalf("threads=%d: cluster assignment differs from serial build", threads)
		}
		got, err := mx.QueryAll(k)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, want, got, threads)
	}
}

// TestMaximusSetThreadsKeepsResults pins the mips.ThreadSetter contract the
// optimizer relies on: changing parallelism on a built index never changes
// its answers.
func TestMaximusSetThreadsKeepsResults(t *testing.T) {
	m := determinismModel(t)
	const k = 5
	mx := core.NewMaximus(core.MaximusConfig{Seed: 1, Threads: 1})
	if err := mx.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	want, err := mx.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	mx.SetThreads(4)
	got, err := mx.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, got, 4)
}
