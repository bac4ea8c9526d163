// Embeddings: high-dimensional similarity search over word-embedding-style
// vectors, the GloVe-Twitter scenario from the paper's evaluation (§V-A).
// Query vectors are drawn from the same space as the corpus — per the
// LEMP/TODS protocol, a permutation of the dataset splits "users" (queries)
// from "items" (the searchable corpus) — and the item set is much larger
// than the query set. Embeddings are a *hard* regime for pruning (diffuse
// directions, moderate norm spread), which is exactly why the paper's Fig 5
// shows mixed winners on GloVe; the run below prints the measured visit
// fraction so you can see how much the index managed to skip.
//
// Run with: go run ./examples/embeddings
package main

import (
	"fmt"
	"log"
	"time"

	"optimus"
)

func main() {
	cfg, err := optimus.DatasetByName("glove-100")
	if err != nil {
		log.Fatal(err)
	}
	ds, err := optimus.GenerateDataset(cfg.Scale(0.15))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %d vectors, queries: %d, dimensions: %d\n",
		ds.Items.Rows(), ds.Users.Rows(), cfg.Factors)

	const k = 8

	// MIPS over embeddings == "most similar under dot product".
	// Exact search with MAXIMUS:
	idx := optimus.NewMaximus(optimus.MaximusConfig{Seed: 3})
	t0 := time.Now()
	if err := idx.Build(ds.Users, ds.Items); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index built in %v (clustering %v, lists %v)\n",
		idx.BuildTime(), idx.Timings().Clustering, idx.Timings().Construction)

	res, err := idx.QueryAll(k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("answered %d queries in %v total\n", len(res), time.Since(t0))

	wbar, err := idx.MeanItemsVisited(k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pruning: visited %.0f of %d corpus vectors per query on average (%.1f%%)\n",
		wbar, ds.Items.Rows(), 100*wbar/float64(ds.Items.Rows()))

	fmt.Printf("\nnearest corpus vectors for query 0 (by inner product):\n")
	for rank, e := range res[0] {
		fmt.Printf("  %d. vector %-7d score %.4f\n", rank+1, e.Item, e.Score)
	}

	// Exactness check against brute force for the first few queries.
	for u := 0; u < 5; u++ {
		if err := optimus.VerifyTopK(ds.Users.Row(u), ds.Items, res[u], k); err != nil {
			log.Fatalf("query %d: %v", u, err)
		}
	}
	fmt.Println("\nverified: exact nearest vectors (no approximation)")
}
