package serving

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"optimus/internal/lemp"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/shard"
	"optimus/internal/transport"
)

// TestRestoreAllocationBound pins what a restore costs in memory: the bytes
// allocated while restoring a server over an S = 4 LEMP composite stay within
// a small multiple of the snapshot's size. A restore copies the stream once
// and parses every nested snapshot (the server's solver, each shard) in
// place, so what is left is that copy plus the decoded index: ≤ 3× the
// snapshot, in-process and with loopback workers alike, since a dialed
// shard's section is decoded once, by its worker (~2.1× both here; 2.7×
// wired while Load also decoded each shard locally). A reader that re-reads
// and copies each nesting level allocates ~7× and ~8× at this size.
func TestRestoreAllocationBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	users, items := mat.New(1500, 16), mat.New(6000, 16)
	for _, m := range []*mat.Matrix{users, items} {
		for i := range m.Data() {
			m.Data()[i] = rng.NormFloat64()
		}
	}
	config := func(dialer shard.WorkerDialer) shard.Config {
		return shard.Config{
			Shards:       4,
			Partitioner:  shard.ByNorm(),
			Factory:      func() mips.Solver { return lemp.New(lemp.Config{Seed: 1}) },
			WorkerDialer: dialer,
		}
	}
	sh := shard.New(config(nil))
	if err := sh.Build(users, items); err != nil {
		t.Fatal(err)
	}
	srv, err := New(sh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = srv.Snapshot(&buf)
	srv.Close()
	if err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	for _, tc := range []struct {
		name   string
		dialer func() shard.WorkerDialer
		bound  float64
	}{
		{"in-process", func() shard.WorkerDialer { return nil }, 3},
		{"loopback", func() shard.WorkerDialer { return transport.NewLoopback().Dialer() }, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			into := shard.New(config(tc.dialer()))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			restored, err := Restore(bytes.NewReader(snap), into, Config{})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			restored.Close()
			ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(snap))
			t.Logf("restoring a %d-byte snapshot allocated %.2f× its size", len(snap), ratio)
			if ratio > tc.bound {
				t.Fatalf("restore allocated %.2f× the snapshot size, bound %.0f×", ratio, tc.bound)
			}
		})
	}
}
