// Package shard implements the item-partitioned execution layer: a Sharded
// composite mips.Solver that splits the item corpus into S shards, builds
// one independent sub-solver per shard, fans queries out on the shared
// internal/parallel pool, and k-way merges the per-shard partial top-Ks back
// into globally-identified exact results.
//
// Why shard the *items*? Real corpora are heterogeneous within one workload:
// LEMP already buckets items by norm because the head of a norm-skewed
// catalog prunes differently from its tail, and tree methods partition the
// item set recursively. The paper's OPTIMUS decision (§IV) — index or
// brute-force? — is taken once per workload; sharding lets it be taken once
// per *item partition*, so a norm-skewed head shard can run MAXIMUS while
// the flat tail runs BMM (see Planner / NewOptimusPlanner). Sharding also
// caps per-solver build state (one shard's index at a time) and is the unit
// a distributed deployment would scale out over.
//
// Exactness is non-negotiable: each sub-solver is exact on its shard, item
// ids are remapped back to the global space, and the merge applies the
// repository's descending-score/ascending-id tie convention, so Sharded
// results are identical — same items, same order — to the unsharded
// solver's, at every shard count. The per-shard id mappings are kept
// ascending in global id precisely so shard-local tie-breaking agrees with
// global tie-breaking. BMM, LEMP and MAXIMUS score every candidate in
// blas.DotFrom's order — the order the GEMM sums each element in, wherever
// the item sits in the multiply — so Sharded over them matches the
// unsharded solver to the bit. Only the cone tree (blas.Dot's four chains)
// and FEXIPRO (scores in its rotated basis, which each shard derives from
// its own items) sum differently; their scores can differ from Naive's,
// and FEXIPRO's from its unsharded self, in the last ulp.
//
// # Cross-shard threshold propagation (the two-wave query)
//
// A blind fan-out wastes the partition's structure: under ByNorm, shard 0
// holds the biggest-norm head of the catalog, so for most users the global
// top-k lives almost entirely there — yet every tail shard still answers its
// local top-k from a cold heap. When the partitioner is head-first (ByNorm),
// Query runs in two waves instead: wave 1 answers the head shard alone; each
// user's k-th head score is then a certified lower bound on their global k-th
// score (a k-th best over a superset never decreases), and wave 2 fans the
// tail shards out through QueryCtx with those bounds as QueryOptions.Floors.
// Tail heaps are born with the head's threshold, so LEMP's bucket break, the
// cone tree's node-bound prune, and MAXIMUS's sorted-bound walk terminate
// before their heaps fill — on a norm-skewed corpus, often immediately. The
// floor contract on mips.Solver.QueryCtx (ties at the floor retained,
// everything above it intact) guarantees the k-way merge still reproduces the
// single-wave result entry-for-entry; a sub-solver that ignores floors only
// scans more. Schedule: SingleWave forces the single-wave path; S=1 and
// non-head-first partitions fall back to it automatically.
package shard

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/parallel"
	"optimus/internal/topk"
)

// Partitioner decides shard membership for every item row.
type Partitioner interface {
	// Name identifies the partitioning scheme in reports.
	Name() string
	// Partition splits the item ids [0, items.Rows()) into at most `shards`
	// groups. Every id must appear in exactly one group; empty groups are
	// dropped by the Sharded builder. Group order is the shard order.
	Partition(items *mat.Matrix, shards int) [][]int
}

// contiguous splits items into equal consecutive ranges — the zero-copy
// default (each shard's sub-matrix aliases the original rows).
type contiguous struct{}

// Contiguous returns the default partitioner: S equal consecutive item
// ranges.
func Contiguous() Partitioner { return contiguous{} }

func (contiguous) Name() string { return "contiguous" }

func (contiguous) Partition(items *mat.Matrix, shards int) [][]int {
	n := items.Rows()
	out := make([][]int, 0, shards)
	for s := 0; s < shards; s++ {
		lo, hi := n*s/shards, n*(s+1)/shards
		if lo == hi {
			continue
		}
		out = append(out, identityRange(lo, hi))
	}
	return out
}

// HeadFirst is the optional Partitioner refinement marking partitions whose
// shard order is head-to-tail by score potential: every item norm in shard s
// is >= every item norm in shard s+1, so shard 0's local top-k is the best
// available seed for the remaining shards' thresholds. Sharded switches to
// the two-wave floor-seeded query when the partitioner reports true here.
type HeadFirst interface {
	HeadFirst() bool
}

// byNorm groups items by descending Euclidean norm: shard 0 holds the
// largest-norm head of the catalog, the last shard its flattest tail. This
// is the partition that gives per-shard planning something to exploit — on
// a norm-skewed corpus the head shard rewards pruning indexes while the
// tail defeats them (the same observation behind LEMP's norm buckets).
type byNorm struct{}

// ByNorm returns the norm-sorted partitioner.
func ByNorm() Partitioner { return byNorm{} }

func (byNorm) Name() string { return "by-norm" }

// HeadFirst implements the HeadFirst marker: ByNorm's shard 0 dominates by
// construction, enabling the two-wave query.
func (byNorm) HeadFirst() bool { return true }

func (byNorm) Partition(items *mat.Matrix, shards int) [][]int {
	n := items.Rows()
	order := identityRange(0, n)
	norms := items.RowNorms()
	sort.SliceStable(order, func(a, b int) bool { return norms[order[a]] > norms[order[b]] })
	out := make([][]int, 0, shards)
	for s := 0; s < shards; s++ {
		lo, hi := n*s/shards, n*(s+1)/shards
		if lo == hi {
			continue
		}
		// Membership comes from the norm order; within the shard, ids are
		// re-sorted ascending so shard-local tie-breaking matches global
		// tie-breaking (see the package comment).
		ids := make([]int, hi-lo)
		copy(ids, order[lo:hi])
		sort.Ints(ids)
		out = append(out, ids)
	}
	return out
}

// Planner chooses and builds the solver for one shard. NewOptimusPlanner
// (planner.go) adapts the paper's sample-and-measure optimizer to this
// interface; a Config supplies either a Planner or a fixed Factory.
type Planner interface {
	// Name identifies the planning scheme in reports.
	Name() string
	// Plan returns a solver already built over (users, items), plus the
	// name of the strategy it chose for reports.
	Plan(users, items *mat.Matrix) (mips.Solver, string, error)
}

// Config configures a Sharded solver.
type Config struct {
	// Shards is the number of item partitions S; 0 (the zero value) defers
	// to the resolved Threads count, and S is always clamped to the item
	// count at Build.
	Shards int
	// Partitioner decides shard membership; nil selects Contiguous().
	Partitioner Partitioner
	// Factory constructs one fresh sub-solver per shard. Required unless
	// Planner is set.
	Factory mips.Factory
	// Planner, when non-nil, selects a (possibly different) solver per
	// shard instead of Factory — the per-shard OPTIMUS decision. Shards are
	// then planned serially so the planner's timing measurements do not
	// contend with each other, and a planner implementing mips.ThreadSetter
	// is aligned to Threads first so decisions are measured at the
	// parallelism the winners will run at.
	Planner Planner
	// Threads parallelizes the shard fan-out (and is forwarded to
	// sub-solvers implementing mips.ThreadSetter via SetThreads); 0 defers
	// to the package-wide parallel.Threads() default.
	Threads int
	// Schedule requests a wave schedule (waves.go). AutoSchedule — the zero
	// value — resolves to TwoWave when the composite is floor-eligible and
	// SingleWave otherwise; an explicit TwoWave likewise falls back to
	// SingleWave when ineligible. SingleWave is also the lesion arm the
	// benchmarks flip to measure the pruning win, and it persists in
	// snapshots. Exactness is schedule-independent; only scan counts differ.
	Schedule Schedule
	// RetainShardSnapshots keeps each shard's sub-solver snapshot bytes (the
	// per-shard section of the persistence manifest) in memory after Build
	// and Load, letting the background reviver (health.go) restore a
	// quarantined shard without rebuilding it. Costs one serialized copy of
	// each sub-solver: Load clones each shard's section out of the restored
	// stream, so a retained copy never pins the rest of that stream (the
	// corpus section, the other shards). Mutations invalidate the touched
	// shards' copies, and revival falls back to a rebuild wherever no
	// snapshot is retained.
	RetainShardSnapshots bool
	// DriftWindowUsers is the number of served users over which the
	// build-time scan/user baseline locks in after every (re)structure
	// (retune.go): once that many users have been answered, the observed
	// scan rate becomes the DriftStats.BaselineScanPerUser the
	// scan-regression trigger compares against. 0 selects the default
	// (adapt.DefaultMinWindowUsers); negative disables baseline lock-in
	// (and with it the scan-regression trigger).
	DriftWindowUsers int
	// WorkerDialer, when non-nil, places every shard behind a dialed Worker
	// instead of the in-process one: Build snapshots each freshly built
	// sub-solver into its persist section and dials it, Load dials the
	// manifest's stored sections directly, and revival re-dials from the
	// retained snapshot (or a rebuild). transport.Loopback.Dialer pins the
	// wire path in-process; a real network dialer slots in identically. nil
	// (the default) keeps every worker in-process with no wire hop.
	WorkerDialer WorkerDialer
}

// shardState is one built partition. The coordinator holds no sub-solver:
// w is the shard's Worker (in-process or dialed), and caps its capability
// word, cached at attach so the hot path never re-probes.
type shardState struct {
	w      Worker
	caps   WorkerCaps
	plan   string // strategy name chosen for this shard
	ids    []int  // ascending global item ids; nil when contiguous
	base   int    // first global id when contiguous
	count  int    // number of items in the shard
	builds int    // sub-solver builds/plans (1 after Build; mutation rebuilds add)
}

// globalID maps a shard-local item id back to the corpus id space.
func (s *shardState) globalID(local int) int {
	if s.ids == nil {
		return s.base + local
	}
	return s.ids[local]
}

// Sharded is the composite item-sharded solver. Create with New; it
// implements mips.Solver, mips.Sized, and mips.ThreadSetter.
type Sharded struct {
	cfg  Config
	name string
	// probeBatches caches one Factory instance's Batches() answer, taken at
	// New — the pre-Build answer (planned configurations always report
	// true: their BMM arm batches).
	probeBatches bool
	users        *mat.Matrix
	items        *mat.Matrix
	shards       []shardState
	batches      bool
	// active is the resolved wave schedule (waves.go): Config.Schedule
	// checked against floor eligibility — the partitioner is head-first and
	// there is a live head and at least one live tail. Re-evaluated after
	// every mutation (removals can empty a shard).
	active Schedule
	// scratchPool and mergePool recycle the fan-out and merge scratch
	// (waves.go), keeping the orchestration layer allocation-free per query.
	scratchPool sync.Pool
	mergePool   sync.Pool

	// Mutable-corpus state (mutate.go). headFirst caches the partitioner
	// marker; normFloor[i] is shard i's minimum item norm at Build, the
	// fixed routing cutoffs that keep the head-to-tail invariant under item
	// arrival; gen is the mips.ItemMutator stamp; mstats the mutation
	// accounting behind MutationStats.
	headFirst bool
	normFloor []float64
	// userNorms caches one Euclidean norm per user row, maintained alongside
	// s.users (Build, AddUsers, Load). Query-time shard skipping (queryShard)
	// multiplies it against the routing cutoffs: an item score never exceeds
	// item-norm times user-norm, so a cutoff-bounded shard can be skipped
	// outright for any user whose floor already beats the product.
	userNorms []float64
	gen       uint64
	mstats    MutationStats

	// Fault-containment state (health.go). stateMu serializes structural
	// state — shards, corpus, epoch — between queries (read side), mutations
	// and Load (write side), and the background reviver's swap; epoch counts
	// structural generations so a revival built against a stale corpus is
	// discarded at swap time instead of committing a wrong membership.
	// health is the per-shard state word (atomic so the query hot path reads
	// it lock- and allocation-free); hmu guards the slower bookkeeping
	// around it. snaps retains per-shard sub-solver snapshot bytes for
	// snapshot-first revival (Config.RetainShardSnapshots).
	stateMu    sync.RWMutex
	epoch      uint64
	health     []atomic.Int32
	hmu        sync.Mutex
	causes     []error
	attempts   []int
	revivals   []int
	reviverOn  bool
	reviveKick chan struct{}
	snaps      [][]byte

	// Drift accounting and adaptive re-structuring state (retune.go).
	// driftAdds/driftRemoves/arrivalRoutes are per-shard churn counters
	// since the last (re)build or committed retune, written by mutations
	// (under stateMu's write side) and read by DriftStats (read side).
	// usersServed and retiredScans are monotone composite meters:
	// usersServed counts query fan-outs per user on the hot path;
	// retiredScans folds a sub-solver's scan counter into the composite
	// total whenever the solver is replaced (rebuild, revival, retune), so
	// scan/user rates survive sub-solver swaps. driftMu guards the
	// baseline lock-in marks.
	driftAdds     []int64
	driftRemoves  []int64
	arrivalRoutes []int64
	usersServed   atomic.Int64
	retiredScans  atomic.Int64
	driftMu       sync.Mutex
	scanMark      int64
	userMark      int64
	scanBaseline  float64
	retunes       int
}

// New returns an unbuilt Sharded solver. Zero-valued config fields fall
// back to the defaults documented on Config.
func New(cfg Config) *Sharded {
	cfg.Threads = parallel.Resolve(cfg.Threads)
	if cfg.Shards <= 0 {
		cfg.Shards = cfg.Threads
	}
	if cfg.Partitioner == nil {
		cfg.Partitioner = Contiguous()
	}
	s := &Sharded{cfg: cfg, name: "Sharded"}
	switch {
	case cfg.Planner != nil:
		s.name = fmt.Sprintf("Sharded(%s,S=%d)", cfg.Planner.Name(), cfg.Shards)
		s.probeBatches = true
	case cfg.Factory != nil:
		if probe := cfg.Factory(); probe != nil {
			s.name = fmt.Sprintf("Sharded(%s,S=%d)", probe.Name(), cfg.Shards)
			s.probeBatches = probe.Batches()
		}
	}
	return s
}

// Name implements mips.Solver.
func (s *Sharded) Name() string { return s.name }

// Batches implements mips.Solver: the composite batches iff any built shard
// batches (an unbuilt Sharded reports the Factory's behaviour, probed once
// at New, or true for planned configurations, whose BMM arm always
// batches).
func (s *Sharded) Batches() bool {
	if s.shards != nil {
		return s.batches
	}
	return s.probeBatches
}

// NumUsers implements mips.Sized.
func (s *Sharded) NumUsers() int {
	if s.users == nil {
		return 0
	}
	return s.users.Rows()
}

// NumItems implements mips.Sized.
func (s *Sharded) NumItems() int {
	if s.items == nil {
		return 0
	}
	return s.items.Rows()
}

// NumShards reports the live partition count S (0 before Build). Retunes
// can change it; mutations cannot.
func (s *Sharded) NumShards() int {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	return len(s.shards)
}

// Items returns the live corpus matrix (nil before Build). Mutations never
// modify the matrix in place — they swap in fresh backing — so the returned
// matrix is safe to read concurrently with queries; it is merely stale
// after the next mutation. Verification flows (mips.VerifyMutation) and the
// drift tests read it to follow the corpus across churn.
func (s *Sharded) Items() *mat.Matrix {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	return s.items
}

// SetThreads implements mips.ThreadSetter, forwarding to every sub-solver
// that supports it so OPTIMUS-style measurement aligns the whole composite.
func (s *Sharded) SetThreads(n int) {
	s.cfg.Threads = parallel.Resolve(n)
	for i := range s.shards {
		s.shards[i].w.SetThreads(n)
	}
}

// Plans reports, per shard, the item count, the strategy serving it — how
// the per-shard OPTIMUS decision came out — and how many times the shard's
// sub-solver has been built or re-planned. Empty before Build. Builds is the
// dirty-shard-isolation regression handle: after a mutation confined to one
// shard's norm range, exactly that shard's Builds advances (and only if the
// mutation took the rebuild/re-plan path rather than an incremental patch).
func (s *Sharded) Plans() []Plan {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	out := make([]Plan, len(s.shards))
	for i := range s.shards {
		out[i] = Plan{Items: s.shards[i].count, Solver: s.shards[i].plan, Builds: s.shards[i].builds}
	}
	return out
}

// Plan describes one shard's assignment.
type Plan struct {
	// Items is the number of item rows in the shard.
	Items int
	// Solver is the name of the strategy built for the shard.
	Solver string
	// Builds counts sub-solver builds/plans: 1 after Build, +1 per mutation
	// that rebuilt (rather than patched) the shard.
	Builds int
}

// Build implements mips.Solver: partition the items, then build one
// sub-solver per shard (via Factory, in parallel) or plan one per shard
// (via Planner, serially — planning measures wall-clock and must not
// contend with itself).
func (s *Sharded) Build(users, items *mat.Matrix) error {
	if err := mips.ValidateInputs(users, items); err != nil {
		return err
	}
	if s.cfg.Factory == nil && s.cfg.Planner == nil {
		return fmt.Errorf("shard: config needs a Factory or a Planner")
	}
	if !s.cfg.Schedule.valid() {
		return fmt.Errorf("shard: invalid schedule %d", int(s.cfg.Schedule))
	}
	parts, err := s.cutParts(items, s.cfg.Shards)
	if err != nil {
		return err
	}
	shards, subItems := makeShardStates(items, parts)
	if err := s.buildAll(shards, users, subItems); err != nil {
		return err
	}

	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	s.epoch++
	s.users, s.items, s.shards = users, items, shards
	s.userNorms = users.RowNorms()
	s.resetHealth(len(shards))
	s.captureSnaps()
	hf, ok := s.cfg.Partitioner.(HeadFirst)
	s.headFirst = ok && hf.HeadFirst()
	if s.headFirst {
		s.normFloor = computeNormFloors(items.RowNorms(), parts)
	} else {
		s.normFloor = nil
	}
	s.gen = 0
	s.mstats = MutationStats{}
	s.retunes = 0
	s.resetDriftLocked()
	s.refreshComposite()
	return nil
}

// cutParts runs the configured partitioner at the given shard count
// (clamped to the item count), drops empty groups, and validates the cut.
// Shared by Build and the retune staging path.
func (s *Sharded) cutParts(items *mat.Matrix, nShards int) ([][]int, error) {
	if nShards < 1 {
		nShards = 1
	}
	if nShards > items.Rows() {
		nShards = items.Rows()
	}
	raw := s.cfg.Partitioner.Partition(items, nShards)
	parts := make([][]int, 0, len(raw))
	for _, ids := range raw {
		if len(ids) > 0 {
			parts = append(parts, ids)
		}
	}
	if err := validatePartition(parts, items.Rows()); err != nil {
		return nil, fmt.Errorf("shard: partitioner %q: %w", s.cfg.Partitioner.Name(), err)
	}
	return parts, nil
}

// makeShardStates materializes one shardState and sub-matrix per partition
// group. Consecutive global ids alias the corpus rows, so contiguous
// sharding costs no item copies.
func makeShardStates(items *mat.Matrix, parts [][]int) ([]shardState, []*mat.Matrix) {
	shards := make([]shardState, len(parts))
	subItems := make([]*mat.Matrix, len(parts))
	for i, ids := range parts {
		if base, ok := contiguousRange(ids); ok {
			shards[i] = shardState{base: base, count: len(ids)}
			subItems[i] = items.RowSlice(base, base+len(ids))
		} else {
			shards[i] = shardState{ids: ids, count: len(ids)}
			subItems[i] = items.SelectRows(ids)
		}
	}
	return shards, subItems
}

// buildAll builds every shard in the set — serially under a Planner (so
// timing measurements do not contend with each other), in parallel under a
// Factory. A failed build closes every worker the set had attached, so no
// dialed worker outlives it.
func (s *Sharded) buildAll(shards []shardState, users *mat.Matrix, subItems []*mat.Matrix) error {
	build := func(i int) error { return s.buildShard(&shards[i], i, users, subItems[i]) }
	if s.cfg.Planner != nil {
		// Align the planner's measurements to the parallelism the shards
		// will run at, so per-shard decisions extrapolate correctly.
		if ts, ok := s.cfg.Planner.(mips.ThreadSetter); ok {
			ts.SetThreads(s.cfg.Threads)
		}
		for i := range shards {
			if err := build(i); err != nil {
				closeWorkers(shards)
				return err
			}
		}
		return nil
	}
	err := parallel.ForErrThreads(s.cfg.Threads, len(shards), 1, func(lo, hi int) error {
		var first error
		for i := lo; i < hi; i++ {
			if e := build(i); e != nil && first == nil {
				first = e
			}
		}
		return first
	})
	if err != nil {
		closeWorkers(shards)
	}
	return err
}

// computeNormFloors derives the fixed routing cutoffs for item arrival
// (mutate.go): shard i's minimum member norm at cut time. Routing an
// arrival to the first shard whose floor its norm meets preserves the
// head-to-tail invariant forever — adds never sink below their shard's
// floor, removals only raise a shard's true minimum.
func computeNormFloors(norms []float64, parts [][]int) []float64 {
	floors := make([]float64, len(parts))
	for i, ids := range parts {
		mn := math.Inf(1)
		for _, id := range ids {
			if norms[id] < mn {
				mn = norms[id]
			}
		}
		floors[i] = mn
	}
	return floors
}

// buildShard (re)builds one shard's sub-solver over the given sub-matrix —
// via the Planner when configured, the Factory otherwise — forwards the
// composite's thread setting, and advances the shard's build counter. It is
// the shared path under Build (every shard), mutation (dirty shards only),
// and revival (health.go). A panicking Planner, Factory, or sub-solver
// Build is contained here into a typed error.
func (s *Sharded) buildShard(sh *shardState, i int, users, subItems *mat.Matrix) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard %d: building: %w", i, &PanicError{Value: r, Stack: debug.Stack()})
		}
	}()
	var solver mips.Solver
	var plan string
	if s.cfg.Planner != nil {
		var err error
		solver, plan, err = s.cfg.Planner.Plan(users, subItems)
		if err != nil {
			return fmt.Errorf("shard %d: planning: %w", i, err)
		}
	} else {
		solver = s.cfg.Factory()
		if solver == nil {
			return fmt.Errorf("shard %d: factory returned nil solver", i)
		}
		if err := solver.Build(users, subItems); err != nil {
			return fmt.Errorf("shard %d: building %s: %w", i, solver.Name(), err)
		}
		plan = solver.Name()
	}
	// The composite's thread setting governs the sub-solvers too, as
	// Config.Threads documents. Set before any snapshot-and-dial so the
	// shipped section reflects the aligned configuration.
	if ts, ok := solver.(mips.ThreadSetter); ok {
		ts.SetThreads(s.cfg.Threads)
	}
	if err := s.attachWorker(sh, i, solver); err != nil {
		return err
	}
	sh.plan = plan
	sh.builds++
	return nil
}

// refreshComposite re-derives the cached composite properties — Batches and
// the active wave schedule — from the current shard set. Called by Build
// and after every mutation. Dead shards (emptied by removals) are skipped;
// a dead head shard disables two-wave (there is nothing to harvest floors
// from).
func (s *Sharded) refreshComposite() {
	shards := s.shards
	s.batches = false
	for i := range shards {
		if shards[i].count > 0 && shards[i].caps.Batches {
			s.batches = true
			break
		}
	}
	floorsOK := false
	if s.headFirst && len(shards) > 1 && shards[0].count > 0 {
		for i := 1; i < len(shards) && !floorsOK; i++ {
			floorsOK = shards[i].count > 0
		}
	}
	if floorsOK && s.cfg.Schedule != SingleWave {
		s.active = TwoWave
	} else {
		s.active = SingleWave
	}
}

// ScanStats implements mips.ScanCounter, summing every metered sub-solver.
func (s *Sharded) ScanStats() mips.ScanStats {
	var total mips.ScanStats
	for _, st := range s.ShardScanStats() {
		total.Add(st)
	}
	return total
}

// ResetScanStats implements mips.ScanCounter.
func (s *Sharded) ResetScanStats() {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	for i := range s.shards {
		if s.shards[i].caps.Scans {
			s.shards[i].w.ResetScanStats()
		}
	}
}

// ShardScanStats returns per-shard scan counts in shard order (zero for
// sub-solvers that do not implement mips.ScanCounter). Shard 0 is wave 1 of
// a two-wave query; the remainder are wave 2 — the split the benchmark's
// shard.head_scan_frac row reads.
func (s *Sharded) ShardScanStats() []mips.ScanStats {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	return s.shardScanStatsLocked()
}

func (s *Sharded) shardScanStatsLocked() []mips.ScanStats {
	out := make([]mips.ScanStats, len(s.shards))
	for i := range s.shards {
		if s.shards[i].caps.Scans {
			// Worker-reported counters: the same aggregation whether the
			// worker is in-process or behind a transport, so ShardScanStats
			// attribution cannot drift between the two paths.
			out[i] = s.shards[i].w.ScanStats()
		}
	}
	return out
}

// Query implements mips.Solver: fan the id list out to every shard (each
// shard answers min(k, shard size) on its sub-corpus), remap shard-local
// item ids to global ids, and k-way merge per user. When Build enabled
// threshold propagation the fan-out runs in two waves instead — head shard
// first, tails floor-seeded with each user's k-th head score (see the
// package comment).
func (s *Sharded) Query(userIDs []int, k int) ([][]topk.Entry, error) {
	return s.query(nil, userIDs, k, nil, nil)
}

// QueryCtx implements mips.Solver. Caller floors make Sharded composable
// under a further threshold-propagating layer: they seed wave 1, combine
// with the harvested head thresholds for wave 2, and reach every shard on
// the single-wave path. The deadline fans out with the query — every shard
// dispatch goes through the sub-solver's own QueryCtx (which polls at its
// natural pruning boundary), and the fan-out itself stops claiming shards
// once ctx is done.
func (s *Sharded) QueryCtx(ctx context.Context, userIDs []int, k int, opts mips.QueryOptions) ([][]topk.Entry, error) {
	if err := mips.ValidateQueryOptions(userIDs, opts); err != nil {
		return nil, err
	}
	return s.query(ctx, userIDs, k, opts.Floors, nil)
}

// QueryPartial implements mips.PartialQuerier: answer from the healthy
// shards, skip quarantined/faulting ones (and, once ctx fires, shards not
// yet reached), and report exactly what was covered. Each covered shard's
// rows are its exact local top-k, so the merged answer is entry-for-entry
// exact over the covered item subset — degradation shrinks the corpus, it
// never approximates. With nothing answered the query fails rather than
// returning a vacuous empty answer.
func (s *Sharded) QueryPartial(ctx context.Context, userIDs []int, k int) ([][]topk.Entry, mips.Coverage, error) {
	var cov mips.Coverage
	res, err := s.query(ctx, userIDs, k, nil, &cov)
	return res, cov, err
}

func (s *Sharded) query(ctx context.Context, userIDs []int, k int, extFloors []float64, cov *mips.Coverage) ([][]topk.Entry, error) {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.shards == nil {
		return nil, fmt.Errorf("shard: Query before Build")
	}
	if err := mips.ValidateK(k, s.items.Rows()); err != nil {
		return nil, err
	}
	for _, u := range userIDs {
		if u < 0 || u >= s.users.Rows() {
			return nil, fmt.Errorf("shard: user id %d out of range [0,%d)", u, s.users.Rows())
		}
	}
	// Drift metering (retune.go): one atomic add per batch keeps the
	// scan/user rate observable without touching the fan-out itself.
	s.usersServed.Add(int64(len(userIDs)))
	sc := s.getScratch(len(userIDs))
	defer s.putScratch(sc)
	partial := cov != nil
	var err error
	if s.active == TwoWave {
		err = s.queryTwoWave(ctx, userIDs, k, extFloors, sc, partial)
	} else {
		err = s.fanOut(ctx, 0, userIDs, k, extFloors, sc, partial)
	}
	if partial {
		s.fillCoverage(sc, cov)
		switch {
		case cov.Answered > 0:
			// Shard faults were absorbed by settle and any ctx error only
			// cut the fan-out short; both are gaps Coverage already
			// reports, not failures of the answered subset.
			err = nil
			for si := range sc.partials {
				if sc.partials[si] == nil {
					sc.partials[si] = sc.empty
				}
			}
		case err == nil:
			err = fmt.Errorf("shard: partial query answered 0 of %d shards", cov.Shards)
		}
	}
	if err != nil {
		return nil, err
	}

	partials := sc.partials
	out := make([][]topk.Entry, len(userIDs))
	parallel.ForThreads(s.cfg.Threads, len(userIDs), mergeGrain, func(lo, hi int) {
		m, _ := s.mergePool.Get().(*mergeScratch)
		if m == nil {
			m = &mergeScratch{}
		}
		if cap(m.rows) < len(partials) {
			m.rows = make([][]topk.Entry, len(partials))
		}
		rows := m.rows[:len(partials)]
		for u := lo; u < hi; u++ {
			for si := range partials {
				rows[si] = partials[si][u]
			}
			out[u] = m.ms.MergeK(rows, k)
		}
		s.mergePool.Put(m)
	})
	return out, nil
}

// fanOut queries shards [firstShard, len(shards)) in parallel, collecting
// the first error — the shared loop under both the single-wave path
// (firstShard 0) and wave 2 of the two-wave path (firstShard 1). A done ctx
// stops further shards from being claimed; shards skipped that way stay nil
// in the partial table (a Coverage gap in partial mode).
func (s *Sharded) fanOut(ctx context.Context, firstShard int, userIDs []int, k int, floors []float64, sc *queryScratch, partial bool) error {
	return parallel.ForErrCtx(ctx, s.cfg.Threads, len(s.shards)-firstShard, 1, func(lo, hi int) error {
		var first error
		for si := lo + firstShard; si < hi+firstShard; si++ {
			if e := s.queryShard(ctx, si, userIDs, k, floors, sc, partial); e != nil && first == nil {
				first = e
			}
		}
		return first
	})
}

// mergeGrain is the per-chunk user count of the merge fan-out; merges are
// cheap (O(k log S)), so chunks are coarse.
const mergeGrain = 64

// queryShard answers one shard and remaps its item ids into global space.
// floors, when non-nil, seed the shard's query (a sub-solver may ignore
// them: its unseeded answer is a superset of any floored prefix). Failures
// route through the containment policy (settle): sub-solver panics and
// errors quarantine the shard, strict mode fails closed, partial mode
// records a Coverage gap.
func (s *Sharded) queryShard(ctx context.Context, si int, userIDs []int, k int, floors []float64, sc *queryScratch, partial bool) error {
	sh := &s.shards[si]
	if sh.count == 0 {
		// A shard emptied by removals holds nothing to answer; its nil rows
		// merge as empty lists. (The pooled scratch pre-points dead shards
		// at a shared all-nil slab; the allocation covers standalone calls.)
		if sc.partials[si] == nil {
			sc.partials[si] = make([][]topk.Entry, len(userIDs))
		}
		return nil
	}
	if s.healthOf(si) != Healthy {
		return s.settle(si, sh.plan, ErrShardQuarantined, partial)
	}
	// Cauchy–Schwarz shard skip. Under a head-first cut every member of a
	// tail shard carries a norm below normFloor[si-1] — at cut time by the
	// descending-norm ordering, and forever after by the fixed routing
	// cutoffs (an arrival that met shard si-1's floor was routed there, not
	// here). An item's score is at most its norm times the user's norm, so a
	// user whose floor already beats normFloor[si-1]·‖u‖ provably gains
	// nothing from this shard: drop them from the sub-query and its scan
	// meter never moves. The bound is fixed at cut time, so it loosens
	// exactly as the cut goes stale — the structural decay DriftStats meters
	// and a retune repairs by re-deriving the cutoffs from the live corpus.
	ids, qf := userIDs, floors
	var pos []int
	if floors != nil && si > 0 && s.headFirst && si-1 < len(s.normFloor) {
		bound := s.normFloor[si-1]
		sub := &sc.subs[si]
		sub.ids, sub.floors, sub.pos = sub.ids[:0], sub.floors[:0], sub.pos[:0]
		for qi, u := range userIDs {
			if u < len(s.userNorms) && bound*s.userNorms[u] < floors[qi] {
				continue
			}
			sub.ids = append(sub.ids, u)
			sub.floors = append(sub.floors, floors[qi])
			sub.pos = append(sub.pos, qi)
		}
		if len(sub.ids) == 0 {
			// Every user bounded out: the shard provably contributes nothing
			// to this batch. The shared all-nil slab merges as empty rows and
			// counts as answered coverage — it was, with a proof.
			sc.partials[si] = sc.empty
			return nil
		}
		if len(sub.ids) < len(userIDs) {
			ids, qf, pos = sub.ids, sub.floors, sub.pos
		}
	}
	kq := k
	if kq > sh.count {
		kq = sh.count
	}
	res, err := s.shardQuery(ctx, sh, si, ids, kq, qf, sc)
	if err == nil {
		err = sc.perr[si] // a recovered panic left a typed error behind
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
	if pos != nil {
		// Scatter the filtered sub-result back into batch order; bounded-out
		// users keep nil rows, which merge as empty — exact, because every
		// item they were spared scores strictly below their floor.
		full := make([][]topk.Entry, len(userIDs))
		for j, qi := range pos {
			full[qi] = res[j]
		}
		res = full
	}
	sc.partials[si] = res
	return nil
}

// shardQuery dispatches one shard's query to its Worker under panic
// containment (recoverShard); the coordinator only routes. A recovered panic
// leaves (nil, nil) here and its typed error in sc.perr[si] — the caller
// folds it back in.
func (s *Sharded) shardQuery(ctx context.Context, sh *shardState, si int, userIDs []int, kq int, floors []float64, sc *queryScratch) (res [][]topk.Entry, err error) {
	defer recoverShard(sc, si)
	return sh.w.Query(ctx, userIDs, kq, floors, nil)
}

// fillCoverage derives the partial-mode Coverage report from the fan-out's
// partial table: a live shard whose slot is still nil was skipped — faulted,
// quarantined, or never reached before ctx fired. Dead (emptied) shards hold
// no items and are not counted either way.
func (s *Sharded) fillCoverage(sc *queryScratch, cov *mips.Coverage) {
	cov.Items = s.items.Rows()
	for si := range s.shards {
		if s.shards[si].count == 0 {
			continue
		}
		cov.Shards++
		if sc.partials[si] == nil {
			cov.Skipped = append(cov.Skipped, si)
		} else {
			cov.Answered++
			cov.ItemsCovered += s.shards[si].count
		}
	}
}

// QueryAll implements mips.Solver.
func (s *Sharded) QueryAll(k int) ([][]topk.Entry, error) {
	if s.shards == nil {
		return nil, fmt.Errorf("shard: QueryAll before Build")
	}
	return s.Query(mips.AllUserIDs(s.users.Rows()), k)
}

// validatePartition checks that the groups cover [0, n) exactly once and
// sorts each group ascending (the Sharded invariant that keeps shard-local
// tie-breaking consistent with global tie-breaking).
func validatePartition(parts [][]int, n int) error {
	seen := make([]bool, n)
	total := 0
	for _, ids := range parts {
		if !sort.IntsAreSorted(ids) {
			sort.Ints(ids)
		}
		for _, id := range ids {
			if id < 0 || id >= n {
				return fmt.Errorf("item id %d out of range [0,%d)", id, n)
			}
			if seen[id] {
				return fmt.Errorf("item id %d assigned twice", id)
			}
			seen[id] = true
		}
		total += len(ids)
	}
	if total != n {
		return fmt.Errorf("%d of %d items assigned", total, n)
	}
	return nil
}

// contiguousRange reports whether ids is the consecutive run [ids[0],
// ids[0]+len), enabling the zero-copy sub-matrix path.
func contiguousRange(ids []int) (base int, ok bool) {
	if len(ids) == 0 {
		return 0, false
	}
	for i, id := range ids {
		if id != ids[0]+i {
			return 0, false
		}
	}
	return ids[0], true
}

// identityRange returns the ids [lo, hi).
func identityRange(lo, hi int) []int {
	ids := make([]int, hi-lo)
	for i := range ids {
		ids[i] = lo + i
	}
	return ids
}

// The composite degrades explicitly (health.go).
var _ mips.PartialQuerier = (*Sharded)(nil)
