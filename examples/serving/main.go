// Serving: the online deployment from §II-A of the paper — "a model serving
// system like Clipper that collects tens of requests at once". Concurrent
// clients issue single-user top-K requests; the server executes them in
// micro-batches so MAXIMUS's shared walk multiplies (and BMM's GEMM, if BMM
// were chosen) amortize across the batch. Nothing waits for a timer: a batch
// is whatever queued up while the previous solver call ran, so the batch
// sizes printed below come from the clients' concurrency alone. The example
// also exercises the §III-E dynamic path: a new user signs up mid-flight and
// is served exactly.
//
// Run with: go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"optimus"
)

func main() {
	cfg, err := optimus.DatasetByName("r2-nomad-25")
	if err != nil {
		log.Fatal(err)
	}
	ds, err := optimus.GenerateDataset(cfg.Scale(0.2))
	if err != nil {
		log.Fatal(err)
	}

	// Build the index once, then serve.
	idx := optimus.NewMaximus(optimus.MaximusConfig{Seed: 11})
	if err := idx.Build(ds.Users, ds.Items); err != nil {
		log.Fatal(err)
	}
	srv, err := optimus.NewServer(idx, optimus.ServerConfig{MaxBatch: 32})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// Simulate a burst of concurrent clients.
	const clients, perClient, k = 8, 50, 10
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				u := (c*perClient + i) % ds.Users.Rows()
				res, err := srv.Query(context.Background(), u, k)
				if err != nil {
					log.Fatalf("client %d: %v", c, err)
				}
				if err := optimus.VerifyTopK(ds.Users.Row(u), ds.Items, res, k); err != nil {
					log.Fatalf("client %d user %d: %v", c, u, err)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	st := srv.Stats()
	fmt.Printf("served %d exact top-%d requests in %v (%.0f req/s)\n",
		st.Requests, k, elapsed.Round(time.Millisecond),
		float64(st.Requests)/elapsed.Seconds())
	fmt.Printf("dispatched %d batches, mean batch size %.1f\n",
		st.Batches, st.MeanBatchSize)

	// A new user arrives (§III-E): assign to the nearest centroid, serve.
	newUser := optimus.NewMatrix(1, ds.Users.Cols())
	copy(newUser.Row(0), ds.Users.Row(0))
	newUser.Row(0)[0] += 0.5 // a taste close to, but not identical to, user 0
	ids, err := idx.AddUsers(newUser)
	if err != nil {
		log.Fatal(err)
	}
	res, err := srv.Query(context.Background(), ids[0], k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnew user %d served; top item %d (score %.4f)\n",
		ids[0], res[0].Item, res[0].Score)
	if err := optimus.VerifyTopK(newUser.Row(0), ds.Items, res, k); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verified: the new user's ranking is exact")
}
