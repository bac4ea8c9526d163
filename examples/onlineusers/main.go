// Onlineusers: the dynamic-catalog deployment. Part 1 is the paper's §III-E
// dynamic-*users* story: a service rarely re-trains clustering when users
// sign up; MAXIMUS runs k-means on the initial base only and assigns later
// arrivals to the nearest existing centroid. The paper reports that
// clustering just 10% of users and assigning the rest changes end-to-end
// runtime by under 1%.
//
// Part 2 goes where the paper stops: real catalogs churn *items* too. The
// same model is served online through a norm-sharded composite behind the
// micro-batching Server, and the catalog is mutated live through the
// server's batched mutation log (Server.Log) — arrivals enqueue with
// provisional handles, retirements enqueue against the virtual corpus, a
// flash-sale item added and withdrawn before the flush annihilates in the
// log without ever touching the index — and one flush applies the whole
// coalesced batch under a single generation-safe drain handshake: in-flight
// batches finish against the old index, the next batch serves the new
// generation, and the handles resolve to the real assigned ids. Only the
// dirty shards are touched — here MAXIMUS patches its bound lists in
// place, so confinement shows in the MutationStats "patched" count while
// every Builds stays at 1 (Builds advances only when a shard must be
// rebuilt or re-planned) — and post-churn answers are verified exact
// against Naive.
//
// Run with: go run ./examples/onlineusers
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"optimus"
)

const k = 10

func main() {
	cfg, err := optimus.DatasetByName("r2-nomad-25")
	if err != nil {
		log.Fatal(err)
	}
	ds, err := optimus.GenerateDataset(cfg.Scale(0.2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("user base: %d users, %d items, f=%d\n",
		ds.Users.Rows(), ds.Items.Rows(), cfg.Factors)

	run := func(name string, sampleFraction float64) [][]optimus.Entry {
		idx := optimus.NewMaximus(optimus.MaximusConfig{
			Seed:                  4,
			ClusterSampleFraction: sampleFraction,
		})
		t0 := time.Now()
		if err := idx.Build(ds.Users, ds.Items); err != nil {
			log.Fatal(err)
		}
		build := time.Since(t0)
		t1 := time.Now()
		res, err := idx.QueryAll(k)
		if err != nil {
			log.Fatal(err)
		}
		query := time.Since(t1)
		fmt.Printf("  %-28s cluster+build %8.1fms   serve %8.1fms\n",
			name, build.Seconds()*1000, query.Seconds()*1000)
		return res
	}

	fmt.Println("strategy comparison (§III-E):")
	full := run("full k-means (all users)", 0)
	sampled := run("k-means on 10%, assign rest", 0.1)

	// Both must be the exact top-K — the θb bound covers assign-only users
	// because it is computed over the final membership.
	if err := optimus.VerifyAll(ds.Users, ds.Items, full, k); err != nil {
		log.Fatal("full clustering: ", err)
	}
	if err := optimus.VerifyAll(ds.Users, ds.Items, sampled, k); err != nil {
		log.Fatal("sampled clustering: ", err)
	}
	fmt.Println("\nverified: both configurations return the exact top-k for every user")
	fmt.Println("(new users are added the same way: assign to the nearest centroid and")
	fmt.Println(" widen that cluster's θb if needed — core.Maximus.AddUsers)")

	itemChurn(ds)
}

// itemChurn is part 2: live catalog mutation through the serving layer's
// batched mutation log.
func itemChurn(ds *optimus.Dataset) {
	fmt.Println("\nitem churn through the serving layer (batched mutation log):")

	// A norm-sharded composite: arrivals route to the shard owning their
	// norm range, so a mutation dirties one shard, not the catalog.
	sharded := optimus.NewSharded(optimus.ShardedConfig{
		Shards:      4,
		Partitioner: optimus.ShardByNorm(),
		Factory: func() optimus.Solver {
			return optimus.NewMaximus(optimus.MaximusConfig{Seed: 4})
		},
	})
	if err := sharded.Build(ds.Users, ds.Items); err != nil {
		log.Fatal(err)
	}
	srv, err := optimus.NewServer(sharded, optimus.ServerConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// The catalog mutates while the server keeps answering, through the
	// batched mutation log: retire the current best-seller of user 0, ship
	// three new items (clones of existing vectors, norm-spread so they land
	// in different shards), and stage a flash-sale item that is withdrawn
	// before it ever serves. Explicit-flush config for the demo; production
	// deployments set MaxEvents/MaxDelay and let the background flusher
	// bound staleness.
	mlog, err := srv.Log(optimus.MutationLogConfig{MaxEvents: -1, MaxDelay: -1})
	if err != nil {
		log.Fatal(err)
	}
	before, err := srv.Query(context.Background(), 0, k)
	if err != nil {
		log.Fatal(err)
	}
	retired := before[0].Item
	arrivals := ds.Items.SelectRows([]int{retired, ds.Items.Rows() / 2, ds.Items.Rows() - 1})

	handles, err := mlog.Add(arrivals)
	if err != nil {
		log.Fatal(err)
	}
	if err := mlog.Remove([]int{retired}); err != nil {
		log.Fatal(err)
	}
	flash, err := mlog.Add(ds.Items.RowSlice(0, 1)) // flash sale...
	if err != nil {
		log.Fatal(err)
	}
	if err := mlog.Cancel(flash[0]); err != nil { // ...withdrawn pre-flush
		log.Fatal(err)
	}
	fmt.Printf("  enqueued: +3 arrivals, -item %d (user 0's former #1), +1 flash sale (cancelled)\n", retired)
	fmt.Printf("  pending %d events (the cancelled pair already annihilated); serving generation %d\n",
		srv.Stats().LogPending, srv.Stats().Generation)

	// One flush: one drain, one generation tick, at most one AddItems + one
	// RemoveItems against the composite — for the whole event batch.
	if err := mlog.Flush(); err != nil {
		log.Fatal(err)
	}
	corpus := optimus.RemoveMatrixRows(optimus.AppendMatrixRows(ds.Items, arrivals), []int{retired})
	ids := make([]int, len(handles))
	for i, h := range handles {
		id, ok := mlog.Resolve(h)
		if !ok {
			log.Fatalf("arrival handle %d did not resolve", h)
		}
		ids[i] = id
	}
	fmt.Printf("  flushed: arrivals resolved to item ids %v\n", ids)

	st := srv.Stats()
	mstats := sharded.MutationStats()
	fmt.Printf("  serving generation %d after 1 flush (%d events applied, %d drains); %d mutations touched %d dirty shard(s) (%d patched, %d rebuilt)\n",
		st.Generation, st.LogFlushedEvents, st.LogFlushes,
		mstats.Mutations, mstats.Dirty(), mstats.Patches, mstats.Rebuilds)
	for si, p := range sharded.Plans() {
		fmt.Printf("  shard %d: %4d items, %s, built %dx\n", si, p.Items, p.Solver, p.Builds)
	}

	after, err := srv.Query(context.Background(), 0, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  user 0 top-1 before: item %d — after churn: item %d\n", retired, after[0].Item)

	// The mutated composite must answer exactly like Naive over the mutated
	// corpus — the ItemMutator contract, checked by the oracle.
	if err := optimus.VerifyMutation(sharded, ds.Users, corpus, k); err != nil {
		log.Fatal("post-churn verification: ", err)
	}
	fmt.Println("  verified: post-churn serving answers are exact (entry-for-entry vs Naive)")
}
