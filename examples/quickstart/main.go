// Quickstart: the smallest end-to-end OPTIMUS program. It generates a small
// recommendation model, lets the optimizer choose a serving strategy, and
// prints one user's recommendations.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"optimus"
)

func main() {
	// A synthetic matrix-factorization model: 1,000 users and 800 items in
	// a 16-dimensional latent space (stand-in for a trained recommender).
	cfg, err := optimus.DatasetByName("netflix-dsgd-10")
	if err != nil {
		log.Fatal(err)
	}
	cfg = cfg.Scale(0.2)
	ds, err := optimus.GenerateDataset(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// OPTIMUS decides online whether to serve this model with blocked
	// matrix multiply or with the MAXIMUS index.
	opt := optimus.NewOptimus(optimus.OptimusConfig{Seed: 1},
		optimus.NewMaximus(optimus.MaximusConfig{Seed: 1}))

	const k = 5
	decision, results, err := opt.Run(ds.Users, ds.Items, k)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("strategy: %s (sampled %d of %d users, overhead %v)\n",
		decision.Winner, decision.SampleSize, ds.Users.Rows(), decision.Overhead)
	for _, est := range decision.Estimates {
		fmt.Printf("  %-8s projected %v\n", est.Solver, est.Total)
	}

	fmt.Printf("\ntop-%d items for user 0:\n", k)
	for rank, e := range results[0] {
		fmt.Printf("  %d. item %d (score %.4f)\n", rank+1, e.Item, e.Score)
	}

	// The results are exact: verify against a brute-force check.
	if err := optimus.VerifyAll(ds.Users, ds.Items, results, k); err != nil {
		log.Fatal("verification failed: ", err)
	}
	fmt.Println("\nverified: results are the exact top-k for every user")
}
