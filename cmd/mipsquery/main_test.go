package main

import (
	"io"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"optimus/internal/lemp"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/shard"
	"optimus/internal/topk"
)

func corpus(t *testing.T) (*mat.Matrix, *mat.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	users, items := mat.New(30, 6), mat.New(120, 6)
	for _, m := range []*mat.Matrix{users, items} {
		for i := range m.Data() {
			m.Data()[i] = rng.NormFloat64()
		}
	}
	return users, items
}

// captureStdout runs f and returns what it printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	f()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestRunQueries(t *testing.T) {
	users, items := corpus(t)
	const k = 5
	solver := lemp.New(lemp.Config{Seed: 1})
	if err := solver.Build(users, items); err != nil {
		t.Fatal(err)
	}
	want, err := solver.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("plain", func(t *testing.T) {
		got, err := runQueries(solver, k, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("plain run differs from QueryAll")
		}
	})

	t.Run("timeout", func(t *testing.T) {
		got, err := runQueries(solver, k, time.Minute, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("-timeout run differs from QueryAll")
		}
	})

	t.Run("partial-unsharded", func(t *testing.T) {
		_, err := runQueries(solver, k, 0, true)
		if err == nil || !strings.Contains(err.Error(), "cannot degrade") {
			t.Fatalf("err = %v, want the cannot-degrade error", err)
		}
	})

	t.Run("partial-sharded", func(t *testing.T) {
		sh := shard.New(shard.Config{
			Shards: 4, Partitioner: shard.ByNorm(),
			Factory: func() mips.Solver { return lemp.New(lemp.Config{Seed: 1}) },
		})
		if err := sh.Build(users, items); err != nil {
			t.Fatal(err)
		}
		var got [][]topk.Entry
		out := captureStdout(t, func() {
			got, err = runQueries(sh, k, 0, true)
		})
		if err != nil {
			t.Fatal(err)
		}
		full := mips.Coverage{Shards: 4, Answered: 4, Items: items.Rows(), ItemsCovered: items.Rows()}
		if want := "coverage: " + full.String() + "\n"; out != want {
			t.Fatalf("printed %q, want %q", out, want)
		}
		if err := mips.VerifyAll(users, items, got, k); err != nil {
			t.Fatal(err)
		}
	})
}
