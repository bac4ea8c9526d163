package optimus_test

import (
	"context"
	"fmt"

	"optimus"
)

// The full OPTIMUS pipeline: generate (or load) a model, let the optimizer
// pick a strategy, and read exact rankings.
func ExampleNewOptimus() {
	cfg, _ := optimus.DatasetByName("netflix-dsgd-10")
	ds, _ := optimus.GenerateDataset(cfg.Scale(0.02))

	opt := optimus.NewOptimus(optimus.OptimusConfig{Seed: 1},
		optimus.NewMaximus(optimus.MaximusConfig{Seed: 1}))
	_, results, err := opt.Run(ds.Users, ds.Items, 3)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("users answered:", len(results))
	fmt.Println("entries per user:", len(results[0]))
	// Output:
	// users answered: 96
	// entries per user: 3
}

// Online serving: NewServer wraps a built solver and micro-batches
// concurrent single-user requests onto it — the Clipper-style deployment of
// §II-A. Solvers run their batches on the shared parallel engine, so one
// server saturates every core it is allowed to use (see SetThreads).
func ExampleNewServer() {
	cfg, _ := optimus.DatasetByName("netflix-dsgd-10")
	ds, _ := optimus.GenerateDataset(cfg.Scale(0.02))

	idx := optimus.NewMaximus(optimus.MaximusConfig{Seed: 1})
	if err := idx.Build(ds.Users, ds.Items); err != nil {
		fmt.Println("error:", err)
		return
	}
	srv, err := optimus.NewServer(idx, optimus.ServerConfig{MaxBatch: 32})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer srv.Close()

	entries, err := srv.Query(context.Background(), 7, 3)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("entries for user 7:", len(entries))
	fmt.Println("exact:", optimus.VerifyTopK(ds.Users.Row(7), ds.Items, entries, 3) == nil)
	// Output:
	// entries for user 7: 3
	// exact: true
}

// Item-sharded execution: NewSharded splits the catalog into shards, builds
// one sub-solver per shard, fans queries out in parallel, and merges the
// partial top-Ks — results are identical to the unsharded solver's. With
// NewShardPlanner, the paper's index-or-not decision runs once per shard
// instead of once per corpus.
func ExampleNewSharded() {
	cfg, _ := optimus.DatasetByName("r2-nomad-10")
	ds, _ := optimus.GenerateDataset(cfg.Scale(0.02))

	sh := optimus.NewSharded(optimus.ShardedConfig{
		Shards:      4,
		Partitioner: optimus.ShardByNorm(),
		Factory:     func() optimus.Solver { return optimus.NewBMM(optimus.BMMConfig{}) },
	})
	if err := sh.Build(ds.Users, ds.Items); err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := sh.QueryAll(3)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("shards:", len(sh.Plans()))
	fmt.Println("exact:", optimus.VerifyAll(ds.Users, ds.Items, res, 3) == nil)
	// Output:
	// shards: 4
	// exact: true
}

// Any solver can be used standalone through the shared Solver interface.
func ExampleNewMaximus() {
	users, _ := optimus.MatrixFromRows([][]float64{
		{1, 0},
		{0.9, 0.1},
	})
	items, _ := optimus.MatrixFromRows([][]float64{
		{0.1, 2.0}, // strong second coordinate: wrong direction for user 0
		{2.0, 0.1}, // aligned with user 0
		{0.5, 0.5},
	})
	idx := optimus.NewMaximus(optimus.MaximusConfig{Seed: 1})
	if err := idx.Build(users, items); err != nil {
		fmt.Println("error:", err)
		return
	}
	res, _ := idx.QueryAll(1)
	fmt.Println("user 0 best item:", res[0][0].Item)
	fmt.Println("user 1 best item:", res[1][0].Item)
	// Output:
	// user 0 best item: 1
	// user 1 best item: 1
}

// Results can always be verified against a brute-force check.
func ExampleVerifyAll() {
	cfg, _ := optimus.DatasetByName("glove-50")
	ds, _ := optimus.GenerateDataset(cfg.Scale(0.01))

	lemp := optimus.NewLEMP(optimus.LEMPConfig{})
	if err := lemp.Build(ds.Users, ds.Items); err != nil {
		fmt.Println("error:", err)
		return
	}
	res, _ := lemp.QueryAll(5)
	fmt.Println("exact:", optimus.VerifyAll(ds.Users, ds.Items, res, 5) == nil)
	// Output:
	// exact: true
}
