// Wave scheduling: in what order the shards answer, and whether the head
// shard's partial results seed the floors of the rest. Two schedules:
//
//   - SingleWave: blind fan-out — every shard answers from a cold heap. The
//     mandatory fallback whenever floor propagation is unavailable (S=1,
//     non-head-first partitions, no live head or tail), and the lesion arm
//     of the ablations.
//   - TwoWave: the head shard answers alone; each user's k-th head score
//     seeds every tail shard at once. AutoSchedule resolves here whenever
//     floors are eligible.
//
// Exactness argument: a floor fed to a tail shard is the k-th best score
// over the head's items (or a caller floor, certified by the same contract),
// hence a lower bound on the global k-th score. Every global top-k entry
// scores at or above the global k-th score, therefore at or above every
// floor fed — so the floor contract (ties at the floor retained, everything
// above intact) guarantees no global winner is dropped, and the k-way merge
// reproduces the single-wave result entry-for-entry.
package shard

import (
	"context"
	"fmt"
	"math"

	"optimus/internal/mips"
	"optimus/internal/topk"
)

// Schedule selects the wave schedule for Sharded.Query. The zero value is
// AutoSchedule.
type Schedule int

const (
	// AutoSchedule resolves to TwoWave when floor propagation is
	// available and to SingleWave otherwise. Resolution is re-run at every
	// structural refresh — build, load, mutation, revival — so the pick
	// tracks the live shard set.
	AutoSchedule Schedule = iota
	// SingleWave is the blind fan-out.
	SingleWave
	// TwoWave is head shard first, then all tails floor-seeded at once.
	TwoWave

	scheduleCount // sentinel for validation
)

var scheduleNames = [...]string{
	AutoSchedule: "auto",
	SingleWave:   "single",
	TwoWave:      "two-wave",
}

// String returns the schedule's canonical name ("auto", "single",
// "two-wave").
func (sc Schedule) String() string {
	if sc < 0 || sc >= scheduleCount {
		return fmt.Sprintf("Schedule(%d)", int(sc))
	}
	return scheduleNames[sc]
}

func (sc Schedule) valid() bool { return sc >= 0 && sc < scheduleCount }

// ParseSchedule maps a canonical schedule name back to its value — the
// inverse of String, used by the CLI flag and the snapshot loader.
func ParseSchedule(name string) (Schedule, error) {
	for sc, n := range scheduleNames {
		if n == name {
			return Schedule(sc), nil
		}
	}
	return 0, fmt.Errorf("shard: unknown schedule %q (want auto, single, or two-wave)", name)
}

// SetSchedule installs a new requested schedule on a built (or unbuilt)
// composite and re-resolves the active schedule against the current shard
// set. It must not race in-flight queries (the serving layer holds its
// solver lock across mutations; standalone callers synchronize themselves).
func (s *Sharded) SetSchedule(sc Schedule) error {
	if !sc.valid() {
		return fmt.Errorf("shard: invalid schedule %d", int(sc))
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	s.cfg.Schedule = sc
	if s.shards != nil {
		s.refreshComposite()
	}
	return nil
}

// SetScheduleByName is SetSchedule over a canonical schedule name.
func (s *Sharded) SetScheduleByName(name string) error {
	sc, err := ParseSchedule(name)
	if err != nil {
		return err
	}
	return s.SetSchedule(sc)
}

// ActiveSchedule reports the schedule Query actually runs: the requested
// Config.Schedule resolved against eligibility (AutoSchedule before Build).
func (s *Sharded) ActiveSchedule() Schedule {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	return s.active
}

// ActiveScheduleName is ActiveSchedule().String(), the structural accessor
// the serving layer reports in Stats.
func (s *Sharded) ActiveScheduleName() string { return s.ActiveSchedule().String() }

// RequestedSchedule reports the configured schedule before eligibility
// resolution (what Save persists).
func (s *Sharded) RequestedSchedule() Schedule {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	return s.cfg.Schedule
}

// WaveScanStats groups ShardScanStats by wave of the active schedule: one
// entry per wave for TwoWave ([head, Σ tails]) and a single total for
// SingleWave. Counts come from the sub-solvers' mips.ScanCounter meters, so
// shards whose solver is unmetered report zero.
func (s *Sharded) WaveScanStats() []mips.ScanStats {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	per := s.shardScanStatsLocked()
	if len(per) == 0 {
		return nil
	}
	if s.active == TwoWave {
		var tail mips.ScanStats
		for _, st := range per[1:] {
			tail.Add(st)
		}
		return []mips.ScanStats{per[0], tail}
	}
	var total mips.ScanStats
	for _, st := range per {
		total.Add(st)
	}
	return []mips.ScanStats{total}
}

// queryScratch is the pooled per-query state of the fan-out hot path: the
// per-shard partial-result table, the harvested floor slice, a shared
// all-nil row slab for dead shards and the per-shard recovered-panic table
// (health.go). Pooling these is
// what makes the orchestration layer allocation-free per query — see
// TestQueryAllocations.
type queryScratch struct {
	partials [][][]topk.Entry
	floors   []float64
	empty    [][]topk.Entry // all-nil rows; aliased by every dead shard
	perr     []error        // recoverShard's per-shard fault slots
	// subs holds one shard-skip filter buffer per shard (queryShard's
	// Cauchy–Schwarz skip): per-shard slots because wave fan-outs query
	// shards concurrently over one shared scratch.
	subs []shardSub
}

// shardSub is queryShard's reusable filtered-query buffer: the surviving
// user ids, their floors, and each survivor's position in the original
// batch (for scattering the sub-result back into batch order).
type shardSub struct {
	ids    []int
	floors []float64
	pos    []int
}

// ensure sizes the scratch for a query of nUsers users over nShards shards,
// reusing prior capacity.
func (sc *queryScratch) ensure(nShards, nUsers int) {
	if cap(sc.partials) < nShards {
		sc.partials = make([][][]topk.Entry, nShards)
	}
	sc.partials = sc.partials[:nShards]
	for i := range sc.partials {
		sc.partials[i] = nil
	}
	if cap(sc.perr) < nShards {
		sc.perr = make([]error, nShards)
	}
	sc.perr = sc.perr[:nShards]
	for i := range sc.perr {
		sc.perr[i] = nil
	}
	if cap(sc.empty) < nUsers {
		sc.empty = make([][]topk.Entry, nUsers)
	}
	sc.empty = sc.empty[:nUsers]
	if cap(sc.floors) < nUsers {
		sc.floors = make([]float64, nUsers)
	}
	sc.floors = sc.floors[:nUsers]
	if cap(sc.subs) < nShards {
		sc.subs = make([]shardSub, nShards)
	}
	sc.subs = sc.subs[:nShards]
}

// getScratch checks a query scratch out of the composite's pool and sizes
// it; dead shards are pre-pointed at the shared empty slab so queryShard
// never allocates for them.
func (s *Sharded) getScratch(nUsers int) *queryScratch {
	sc, _ := s.scratchPool.Get().(*queryScratch)
	if sc == nil {
		sc = &queryScratch{}
	}
	sc.ensure(len(s.shards), nUsers)
	for si := range s.shards {
		if s.shards[si].count == 0 {
			sc.partials[si] = sc.empty
		}
	}
	return sc
}

// putScratch returns a scratch to the pool, dropping references to the
// sub-solver result rows so they stay collectable.
func (s *Sharded) putScratch(sc *queryScratch) {
	for i := range sc.partials {
		sc.partials[i] = nil
	}
	s.scratchPool.Put(sc)
}

// mergeScratch is the pooled per-worker state of the k-way merge: the
// per-user row table and the MergeK cursor heap.
type mergeScratch struct {
	rows [][]topk.Entry
	ms   topk.MergeScratch
}

// seedFloors initializes the scratch floor slice from the caller's external
// floors (-Inf when absent).
func seedFloors(dst []float64, extFloors []float64) {
	if extFloors != nil {
		copy(dst, extFloors)
		return
	}
	for i := range dst {
		dst[i] = math.Inf(-1)
	}
}

// queryTwoWave is the floor-seeded path: wave 1 answers the head
// shard alone (at full parallelism inside the sub-solver), wave 2 fans the
// tails out seeded with each user's k-th head score.
func (s *Sharded) queryTwoWave(ctx context.Context, userIDs []int, k int, extFloors []float64, sc *queryScratch, partial bool) error {
	if err := s.queryShard(ctx, 0, userIDs, k, extFloors, sc, partial); err != nil {
		return err
	}
	// Harvest each user's k-th head score: the k-th best over the head items
	// is a lower bound on the k-th best over all items. A head shard smaller
	// than k (or itself floored below k entries) proves nothing for that
	// user; the external floor, if any, still applies. A head skipped in
	// partial mode left its slot nil — the tails then run from the external
	// floors alone, which stays exact over the covered subset.
	floors := sc.floors
	seedFloors(floors, extFloors)
	for i, row := range sc.partials[0] {
		if len(row) >= k && row[k-1].Score > floors[i] {
			floors[i] = row[k-1].Score
		}
	}
	return s.fanOut(ctx, 1, userIDs, k, floors, sc, partial)
}
