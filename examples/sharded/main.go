// Sharded execution: split a heterogeneous catalog into item shards and let
// the paper's index-or-not decision run once per shard instead of once per
// corpus.
//
// The scenario concatenates two catalogs — the shape a production system
// gets when it merges inventories. The first is index-friendly (heavy norm
// skew, items aligned with tightly clustered users — the regime where
// MAXIMUS prunes well); the second is brute-force-friendly (flat norms,
// isotropic directions — the regime where BMM wins). A single OPTIMUS run
// must pick one strategy for the whole corpus; the sharded executor with a
// contiguous partition puts each catalog in its own shard, the per-shard
// planner picks per shard, and the k-way merge returns exact global
// results. (ShardByNorm is the partitioner to reach for when the regimes
// are interleaved rather than concatenated.)
//
// Run with: go run ./examples/sharded
package main

import (
	"fmt"
	"log"

	"optimus"
)

func main() {
	// Index-regime half: tight user clusters, log-normal item norms with
	// σ=1.1, items aligned to the user tastes (the KDD rows of Fig 5).
	head, err := optimus.GenerateDataset(optimus.DatasetConfig{
		Name: "head-skewed", Users: 1200, Items: 1100, Factors: 25,
		TrueClusters: 10, UserSpread: 0.15, NormSigma: 1.10, ItemAlign: 0.5,
		Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	// BMM-regime half: isotropic items with flat norms — nothing to prune.
	tail, err := optimus.GenerateDataset(optimus.DatasetConfig{
		Name: "tail-flat", Users: 2, Items: 1100, Factors: 25,
		TrueClusters: 4, UserSpread: 2.0, NormSigma: 0.01, ItemAlign: 0,
		Seed: 12,
	})
	if err != nil {
		log.Fatal(err)
	}
	users := head.Users
	items := optimus.NewMatrix(head.Items.Rows()+tail.Items.Rows(), head.Items.Cols())
	copy(items.Data(), head.Items.Data())
	copy(items.Data()[head.Items.Rows()*head.Items.Cols():], tail.Items.Data())
	fmt.Printf("corpus: %d users × %d items (%d skewed + %d flat)\n\n",
		users.Rows(), items.Rows(), head.Items.Rows(), tail.Items.Rows())

	const k = 5
	sh := optimus.NewSharded(optimus.ShardedConfig{
		Shards:      2, // one shard per concatenated catalog
		Partitioner: optimus.ShardContiguous(),
		Planner: optimus.NewShardPlanner(
			// A small sample floor: per-shard measurement should stay a
			// fraction of per-shard work (the default 256 KiB floor is
			// sized for the paper's ≥480k-user models).
			optimus.OptimusConfig{SampleFraction: 0.05, L2CacheBytes: 8 << 10, Seed: 1}, k,
			func() optimus.Solver { return optimus.NewMaximus(optimus.MaximusConfig{Seed: 1}) },
		),
	})
	if err := sh.Build(users, items); err != nil {
		log.Fatal(err)
	}
	fmt.Println("per-shard OPTIMUS decisions (shard 0 = skewed catalog, shard 1 = flat):")
	for si, p := range sh.Plans() {
		fmt.Printf("  shard %d: %-8s over %d items\n", si, p.Solver, p.Items)
	}

	results, err := sh.QueryAll(k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntop-%d items for user 0 (global ids, merged across shards):\n", k)
	for rank, e := range results[0] {
		fmt.Printf("  %2d. item %4d (score %.4f)\n", rank+1, e.Item, e.Score)
	}

	// Exactness survives sharding and mixed per-shard strategies.
	if err := optimus.VerifyAll(users, items, results, k); err != nil {
		log.Fatal("verification failed: ", err)
	}
	fmt.Println("\nverified: sharded results are the exact top-k for every user")
}
