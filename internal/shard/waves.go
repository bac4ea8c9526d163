// Wave scheduling: the generalization of the two-wave query into pluggable
// fan-out schedules (ISSUE 7). A schedule decides in what order the shards
// answer and how each shard's partial results tighten the floors of the
// shards still to run:
//
//   - SingleWave: blind fan-out — every shard answers from a cold heap. The
//     mandatory fallback whenever floor propagation is unavailable (S=1,
//     non-head-first partitions, no live head or tail), and the lesion arm
//     of the ablations.
//   - TwoWave: the head shard answers alone; each user's k-th head score
//     seeds every tail shard at once. Exactly the pre-schedule behavior —
//     AutoSchedule resolves here whenever eligible.
//   - Cascade: S serial waves in shard order (under ByNorm that is
//     descending norm-ceiling order). After each wave the per-user k-th best
//     over the union of all completed waves becomes the next wave's floor,
//     so floors tighten monotonically as the cascade descends into the tail
//     — strictly tighter than TwoWave's head-only floors, at the cost of
//     serializing the waves. Fully deterministic: scan counters are
//     reproducible run to run.
//   - Pipelined: every shard starts at once. Shards start blind but their
//     sub-solvers poll a shared topk.FloorBoard (QueryOptions.Board) at
//     their pruning decision points, so a floor raised by
//     an earlier-finishing shard re-seeds them in flight; each shard that
//     completes with a full k rows raises the board with its per-user k-th
//     score. Results are exact regardless of timing (every raise is a
//     certified lower bound on the global k-th score), but scan counters are
//     timing-dependent — the price of not serializing anything.
//
// Exactness argument, shared by every schedule: a floor fed to any shard is
// always the k-th best score over some subset of the corpus (or a caller
// floor, certified by the same contract), hence a lower bound on the global
// k-th score. Every global top-k entry scores at or above the global k-th
// score, therefore at or above every floor ever fed or raised — so the floor
// contract (ties at the floor retained, everything above intact) guarantees
// no schedule can drop a global winner, and the k-way merge reproduces the
// single-wave result entry-for-entry.
package shard

import (
	"context"
	"fmt"
	"math"

	"optimus/internal/mips"
	"optimus/internal/parallel"
	"optimus/internal/topk"
)

// Schedule selects the wave schedule for Sharded.Query. The zero value is
// AutoSchedule.
type Schedule int

const (
	// AutoSchedule resolves the schedule from the machine and the model
	// instead of hardcoding one: SingleWave when floor propagation is
	// unavailable, otherwise resolveAuto's decision table over measured
	// core count and the cut's norm skew (see the table at autoSchedule).
	// Resolution is re-run at every structural refresh — build, mutation,
	// revival, retune — so the pick tracks the live shard set.
	AutoSchedule Schedule = iota
	// SingleWave is the blind fan-out.
	SingleWave
	// TwoWave is head shard first, then all tails floor-seeded at once.
	TwoWave
	// Cascade runs S serial waves, each seeded by the running union k-th.
	Cascade
	// Pipelined runs all shards concurrently over a shared live FloorBoard.
	Pipelined

	scheduleCount // sentinel for validation
)

var scheduleNames = [...]string{
	AutoSchedule: "auto",
	SingleWave:   "single",
	TwoWave:      "two-wave",
	Cascade:      "cascade",
	Pipelined:    "pipelined",
}

// String returns the schedule's canonical name ("auto", "single",
// "two-wave", "cascade", "pipelined").
func (sc Schedule) String() string {
	if sc < 0 || sc >= scheduleCount {
		return fmt.Sprintf("Schedule(%d)", int(sc))
	}
	return scheduleNames[sc]
}

func (sc Schedule) valid() bool { return sc >= 0 && sc < scheduleCount }

// ParseSchedule maps a canonical schedule name back to its value — the
// inverse of String, used by the CLI flag, the serving config, and the
// snapshot loader.
func ParseSchedule(name string) (Schedule, error) {
	for sc, n := range scheduleNames {
		if n == name {
			return Schedule(sc), nil
		}
	}
	return 0, fmt.Errorf("shard: unknown schedule %q (want auto, single, two-wave, cascade, or pipelined)", name)
}

// DefaultAutoSkewThreshold is the norm-skew pivot of the auto-schedule
// decision table: at or above it the head shard's norms dominate the tail's
// enough that head-first floor seeding prunes most tail work.
const DefaultAutoSkewThreshold = 1.5

// autoSchedule is the ROADMAP `auto` decision table, resolved from measured
// core count and the cut's norm skew (mean head-shard norm over mean
// last-shard norm, computeNormSkew). Floor eligibility is decided before
// this is consulted — SingleWave never reaches here.
//
//	norm skew            cores   schedule   rationale
//	---------            -----   --------   ---------
//	>= threshold         any     TwoWave    head floors prune the tail; one
//	                                        cheap serial boundary buys the
//	                                        pruning, full fan-out after it
//	unknown (0)          any     TwoWave    no skew evidence (non-ByNorm cut
//	                                        or no norms cached): keep the
//	                                        historical default
//	< threshold          <= 1    Cascade    flat norms need the tightest
//	                                        floors to prune at all; with no
//	                                        parallelism to lose, serial
//	                                        waves cost nothing extra
//	< threshold          >  1    Pipelined  flat norms make wave order
//	                                        irrelevant, so don't serialize:
//	                                        run everything, share floors
//	                                        through the live board
//
// Deterministic override for tests: pin Config.Schedule explicitly, or pin
// the inputs via Config.AutoCores / Config.AutoSkewThreshold.
func autoSchedule(cores int, skew, threshold float64) Schedule {
	if threshold <= 0 {
		threshold = DefaultAutoSkewThreshold
	}
	if skew >= threshold || skew == 0 {
		return TwoWave
	}
	if cores <= 1 {
		return Cascade
	}
	return Pipelined
}

// resolveAuto applies the auto-schedule decision table to this composite's
// measured inputs: the resolved worker count (Config.AutoCores overrides for
// determinism) and the cut-time norm skew cached by Build / the last retune.
// Caller holds stateMu and has already established floor eligibility.
func (s *Sharded) resolveAuto() Schedule {
	cores := s.cfg.AutoCores
	if cores <= 0 {
		cores = parallel.Resolve(s.cfg.Threads)
	}
	return autoSchedule(cores, s.normSkew, s.cfg.AutoSkewThreshold)
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
// entry per wave for TwoWave ([head, Σ tails]), one per shard for Cascade
// and Pipelined (each shard is its own wave), and a single total for
// SingleWave. Counts come from the sub-solvers' mips.ScanCounter meters, so
// shards whose solver is unmetered report zero.
func (s *Sharded) WaveScanStats() []mips.ScanStats {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	per := s.shardScanStatsLocked()
	if len(per) == 0 {
		return nil
	}
	switch s.active {
	case TwoWave:
		var tail mips.ScanStats
		for _, st := range per[1:] {
			tail.Add(st)
		}
		return []mips.ScanStats{per[0], tail}
	case Cascade, Pipelined:
		return per
	default:
		var total mips.ScanStats
		for _, st := range per {
			total.Add(st)
		}
		return []mips.ScanStats{total}
	}
}

// queryScratch is the pooled per-query state of the fan-out hot path: the
// per-shard partial-result table, the harvested floor slice, a shared
// all-nil row slab for dead shards, the per-shard recovered-panic table
// (health.go), and (Pipelined only) the live floor board. Pooling these is
// what makes the orchestration layer allocation-free per query — see
// TestQueryAllocations.
type queryScratch struct {
	partials [][][]topk.Entry
	floors   []float64
	empty    [][]topk.Entry // all-nil rows; aliased by every dead shard
	perr     []error        // recoverShard's per-shard fault slots
	board    *topk.FloorBoard
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

// boardFor returns the scratch's FloorBoard reset to -Inf, reallocating only
// when the user count changed. Reset here is safe: the scratch is
// checked out of the pool, so no query shares the board yet.
func (sc *queryScratch) boardFor(nUsers int) *topk.FloorBoard {
	if sc.board == nil || sc.board.Len() != nUsers {
		sc.board = topk.NewFloorBoard(nUsers)
	} else {
		sc.board.Reset()
	}
	return sc.board
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

// queryTwoWave is the historical floor-seeded path: wave 1 answers the head
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

// queryCascade runs S serial waves in shard order. A per-user running top-k
// heap accumulates the union of every completed wave's entries; once full,
// its root — the k-th best over everything answered so far — becomes the
// floor of the next wave. Under ByNorm the shard order is descending
// norm-ceiling order, so the cascade descends into ever-flatter tails with
// ever-tighter floors. Serial waves make the floors (and therefore the scan
// counters) fully deterministic.
func (s *Sharded) queryCascade(ctx context.Context, userIDs []int, k int, extFloors []float64, sc *queryScratch, partial bool) error {
	floors := sc.floors
	seedFloors(floors, extFloors)
	// The running heaps are per-query allocations: heap capacity is k-bound
	// and the cascade's win is measured in scans, not allocations (the
	// pinned zero-allocation path is the default schedule).
	heaps := make([]*topk.Heap, len(userIDs))
	for i := range heaps {
		heaps[i] = topk.New(k)
	}
	last := len(s.shards) - 1
	for si := range s.shards {
		// The wave boundary is the cascade's natural cancellation unit; a
		// skipped wave's nil slot reads as a Coverage gap in partial mode.
		if err := mips.CtxErr(ctx); err != nil {
			return err
		}
		if err := s.queryShard(ctx, si, userIDs, k, floors, sc, partial); err != nil {
			return err
		}
		if si == last || s.shards[si].count == 0 {
			continue // nothing (more) to seed
		}
		for qi, row := range sc.partials[si] {
			h := heaps[qi]
			topk.MergeInto(h, row)
			if h.Full() {
				if m := h.Min().Score; m > floors[qi] {
					floors[qi] = m
				}
			}
		}
	}
	return nil
}

// queryPipelined fans every shard out at once over one shared FloorBoard.
// Live-floor sub-solvers poll the board at their pruning decision points and
// so re-seed in flight; threshold-only sub-solvers get a static snapshot of
// the board taken when their shard starts (a valid floor — the board only
// ever holds certified lower bounds); unseedable sub-solvers run blind.
// Every shard that returns k full rows raises the board with its per-user
// k-th score for the shards still running. Exact at any interleaving;
// scan counts are timing-dependent (see the package comment).
func (s *Sharded) queryPipelined(ctx context.Context, userIDs []int, k int, extFloors []float64, sc *queryScratch, partial bool) error {
	board := sc.boardFor(len(userIDs))
	if extFloors != nil {
		board.Fill(extFloors)
	}
	return parallel.ForErrCtx(ctx, s.cfg.Threads, len(s.shards), 1, func(lo, hi int) error {
		var first error
		for si := lo; si < hi; si++ {
			if e := s.queryShardLive(ctx, si, userIDs, k, board, sc, partial); e != nil && first == nil {
				first = e
			}
		}
		return first
	})
}

// queryShardLive is queryShard for the pipelined schedule: the floor source
// is the shared board rather than a static slice, and the shard raises the
// board on completion. Board raises happen only after a successful return,
// so a faulted (or cancelled) shard can never publish floors — partial-mode
// answers from the remaining shards stay exact over the covered subset.
func (s *Sharded) queryShardLive(ctx context.Context, si int, userIDs []int, k int, board *topk.FloorBoard, sc *queryScratch, partial bool) error {
	sh := &s.shards[si]
	if sh.count == 0 {
		return nil // partials[si] pre-pointed at the empty slab
	}
	if s.healthOf(si) != Healthy {
		return s.settle(si, sh.plan, ErrShardQuarantined, partial)
	}
	kq := k
	if kq > sh.count {
		kq = sh.count
	}
	res, err := s.shardQuery(ctx, sh, si, userIDs, kq, nil, board, sc)
	if err == nil {
		err = sc.perr[si]
	}
	if err != nil {
		return s.settle(si, sh.plan, err, partial)
	}
	if sh.ids != nil || sh.base != 0 {
		for _, row := range res {
			for i := range row {
				row[i].Item = sh.globalID(row[i].Item)
			}
		}
	}
	// A full k rows proves the shard's k-th score is a lower bound on the
	// global k-th (a k-th best never decreases when the candidate set
	// grows); fewer than k rows — shard smaller than k, or floored below k
	// survivors — proves nothing and raises nothing.
	for qi, row := range res {
		if len(row) >= k {
			board.Raise(qi, row[k-1].Score)
		}
	}
	sc.partials[si] = res
	return nil
}
