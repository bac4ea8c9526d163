// Package optimus is a dependency-free Go implementation of the exact Maximum Inner
// Product Search (MIPS) system from "To Index or Not to Index: Optimizing
// Exact Maximum Inner Product Search" (Abuzaid, Sethi, Bailis, Zaharia —
// ICDE 2019).
//
// Given a matrix of user vectors and a matrix of item vectors, the batch
// top-K MIPS problem asks for the K items with the largest inner product for
// every user — the serving step of matrix-factorization recommenders. The
// paper's observation is that no single strategy wins everywhere:
//
//   - BMM, a cache-blocked brute-force matrix multiply, beats sophisticated
//     indexes on hard-to-prune inputs;
//   - MAXIMUS, a cluster-based index with a provable rating upper bound,
//     wins when users cluster tightly and item norms are skewed;
//   - LEMP and FEXIPRO, the prior state of the art, win on other inputs.
//
// OPTIMUS picks among them online: it builds the candidate indexes (cheap),
// measures every strategy on a small sample of users, extrapolates, and
// finishes the batch with the winner.
//
// Every solver hot path runs on a shared bounded worker pool (the
// internal/parallel execution engine): BMM shards its blocked GEMM and top-K
// harvest, MAXIMUS its clustering, construction, and per-cluster walks, and
// LEMP, FEXIPRO, and the cone tree their per-user query loops. Parallelism
// is controlled by the Threads field every solver config carries; the zero
// value defers to the process-wide default (all cores), adjustable with
// SetThreads. Parallel results are bit-identical to serial ones — work is
// decomposed into fixed chunks independent of the worker count — so Threads
// is purely a performance knob.
//
// Quickstart:
//
//	users, items := ... // *optimus.Matrix, rows are vectors
//	opt := optimus.NewOptimus(optimus.OptimusConfig{},
//	    optimus.NewMaximus(optimus.MaximusConfig{}))
//	decision, results, err := opt.Run(users, items, 10)
//
// results[u] is user u's exact top-10, and decision records which strategy
// ran and why. Individual solvers implement the Solver interface and can be
// used directly. See the examples/ directory for runnable scenarios and
// cmd/mipsbench for the harness that regenerates the paper's figures.
package optimus

import (
	"fmt"
	"io"

	"optimus/internal/conetree"
	"optimus/internal/core"
	"optimus/internal/dataset"
	"optimus/internal/fexipro"
	"optimus/internal/lemp"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/mutlog"
	"optimus/internal/parallel"
	"optimus/internal/persist"
	"optimus/internal/serving"
	"optimus/internal/shard"
	"optimus/internal/topk"
	"optimus/internal/transport"
)

// SetThreads sets the process-wide default parallelism used by every solver
// whose config leaves Threads at zero, and returns the previous default.
// n <= 0 resets to runtime.GOMAXPROCS(0). Benchmark harnesses and servers
// call this once at startup to sweep or pin parallelism globally.
func SetThreads(n int) int { return parallel.SetThreads(n) }

// Threads returns the current process-wide default parallelism.
func Threads() int { return parallel.Threads() }

// Matrix is a dense row-major float64 matrix; each row is one user or item
// vector.
type Matrix = mat.Matrix

// Entry is one scored item in a top-K result: results are ordered by
// descending score with ties broken toward the lower item id.
type Entry = topk.Entry

// Solver is an exact batch top-K MIPS solver (see the mips package contract:
// Build, then Query/QueryAll/QueryCtx; implementations are read-only after
// Build). A custom solver implements QueryCtx too; ignoring its floors is
// valid, because the unseeded answer is a superset of every floored one.
type Solver = mips.Solver

// QueryOptions carries the optional floor source of a Solver.QueryCtx call:
// static per-user floors, or none. A floor-seeded row is the prefix of the
// unseeded row whose scores are at or above the user's floor (ties kept),
// identically ranked; the sharded two-wave query path is built on it.
type QueryOptions = mips.QueryOptions

// ItemMutator is the optional Solver refinement for mutable item corpora —
// the build/mutate lifecycle. AddItems appends items (ids [n, n+m) are
// returned), RemoveItems deletes and compacts (survivors keep relative
// order, renumbered densely), and Generation stamps the catalog version.
// After any interleaving of mutations, query results are entry-for-entry
// identical to a fresh Build over the mutated corpus. The served solvers and
// Naive implement it: BMM and Naive append/compact, MAXIMUS splices its bound
// lists, LEMP splices its norm-sorted buckets. The
// baselines (the cone tree, FEXIPRO) do not; Sharded routes mutations to
// the owning shards only and rebuilds a shard whose sub-solver cannot patch
// itself, so any solver is mutable as a composite — see NewSharded.
// Mutation must be serialized against in-flight queries; Server.Mutate does
// this for online deployments.
type ItemMutator = mips.ItemMutator

// UserAdder is the optional Solver refinement for dynamic user arrival
// (§III-E): AddUsers appends user vectors (ids [n, n+m) are returned) while
// queries stay exact for old and new users. The served solvers implement
// it — MAXIMUS with the paper's assign-to-nearest-centroid path plus θb
// maintenance, the others by growing their query-side state — and Sharded
// broadcasts arrivals to every shard, rebuilding the shards whose
// sub-solver is not a UserAdder.
type UserAdder = mips.UserAdder

// VerifyMutation is the mutable-corpus oracle: it checks that the mutated
// solver's answers are exactly the Naive reference's over the mutated
// corpus (VerifyAll), which every fresh build also answers. Scores are
// compared with ==. items must be the corpus after the same mutations (see
// AppendMatrixRows/RemoveMatrixRows).
func VerifyMutation(mutated Solver, users, items *Matrix, k int) error {
	return mips.VerifyMutation(mutated, users, items, k)
}

// AppendMatrixRows returns a new matrix holding a's rows followed by b's —
// the reference bookkeeping for an AddItems/AddUsers call (neither input is
// modified or aliased).
func AppendMatrixRows(a, b *Matrix) *Matrix { return mat.AppendRows(a, b) }

// RemoveMatrixRows returns a new matrix with the listed rows deleted and the
// survivors compacted in order — the reference bookkeeping for a
// RemoveItems call. ids must be valid, sorted, and duplicate-free.
func RemoveMatrixRows(m *Matrix, ids []int) *Matrix { return mat.RemoveRows(m, ids) }

// ScanStats counts the item candidates a solver evaluated — the
// deterministic pruning-effectiveness metric the sharding benchmark reports
// per wave (wall-clock is noisy; the scanned set is decided by the data
// alone and identical at every thread count).
type ScanStats = mips.ScanStats

// ScanCounter is the optional Solver refinement exposing ScanStats
// (cumulative across queries; ResetScanStats or Build clears).
type ScanCounter = mips.ScanCounter

// NewMatrix allocates a rows×cols zero matrix.
func NewMatrix(rows, cols int) *Matrix { return mat.New(rows, cols) }

// MatrixFromRows copies a slice-of-rows into a new matrix.
func MatrixFromRows(rows [][]float64) (*Matrix, error) { return mat.FromRows(rows) }

// ReadMatrix reads a matrix in the OMX1 binary format produced by
// WriteMatrix.
func ReadMatrix(r io.Reader) (*Matrix, error) { return mat.ReadBinary(r) }

// WriteMatrix writes a matrix in the OMX1 binary format.
func WriteMatrix(w io.Writer, m *Matrix) error { return mat.WriteBinary(w, m) }

// ReadMatrixCSV parses a comma- or whitespace-separated numeric matrix, the
// interchange format used by the LEMP/FEXIPRO reference model files.
func ReadMatrixCSV(r io.Reader) (*Matrix, error) { return mat.ReadCSV(r) }

// WriteMatrixCSV writes a matrix as CSV with full float64 precision.
func WriteMatrixCSV(w io.Writer, m *Matrix) error { return mat.WriteCSV(w, m) }

// BMMConfig configures the blocked-matrix-multiply brute-force solver.
type BMMConfig = core.BMMConfig

// NewBMM returns the hardware-efficient brute-force solver (§II-B of the
// paper).
func NewBMM(cfg BMMConfig) *core.BMM { return core.NewBMM(cfg) }

// MaximusConfig configures the MAXIMUS index; zero values select the paper's
// published parameters (|C|=8, i=3, adaptive B).
type MaximusConfig = core.MaximusConfig

// NewMaximus returns the paper's cluster-based pruning index (§III).
func NewMaximus(cfg MaximusConfig) *core.Maximus { return core.NewMaximus(cfg) }

// OptimusConfig configures the online optimizer; zero values select the
// paper's settings (0.5% sample, 256 KiB L2 floor, α=0.05 t-test).
type OptimusConfig = core.OptimusConfig

// Decision describes an optimizer run: winner, per-strategy estimates,
// sample size and overhead.
type Decision = core.Decision

// NewOptimus returns the online optimizer choosing between BMM and the given
// index solvers (§IV).
func NewOptimus(cfg OptimusConfig, indexes ...Solver) *core.Optimus {
	return core.NewOptimus(cfg, indexes...)
}

// LEMPConfig configures the LEMP baseline index.
type LEMPConfig = lemp.Config

// NewLEMP returns the LEMP-LI baseline (Teflioudi et al., SIGMOD 2015).
func NewLEMP(cfg LEMPConfig) *lemp.Index { return lemp.New(cfg) }

// FexiproConfig configures the FEXIPRO baseline index.
type FexiproConfig = fexipro.Config

// Fexipro pruning variants.
const (
	FexiproSI  = fexipro.SI
	FexiproSIR = fexipro.SIR
)

// NewFexipro returns the FEXIPRO baseline (Li et al., SIGMOD 2017).
func NewFexipro(cfg FexiproConfig) *fexipro.Index { return fexipro.New(cfg) }

// NewNaive returns the unindexed per-pair reference solver, useful as a
// correctness oracle.
func NewNaive() *mips.Naive { return mips.NewNaive() }

// ConeTreeConfig configures the cone-tree baseline index.
type ConeTreeConfig = conetree.Config

// NewConeTree returns the cone-tree exact MIPS baseline (Ram & Gray,
// KDD 2012), the tree-based related-work method the paper's §VI discusses.
func NewConeTree(cfg ConeTreeConfig) *conetree.Index { return conetree.New(cfg) }

// DatasetConfig describes a synthetic matrix-factorization model; see
// Datasets for the paper's 23 reference configurations.
type DatasetConfig = dataset.Config

// Dataset is a generated user/item factor pair.
type Dataset = dataset.Model

// GenerateDataset materializes a synthetic model.
func GenerateDataset(cfg DatasetConfig) (*Dataset, error) { return dataset.Generate(cfg) }

// Datasets returns the synthetic equivalents of the paper's 23 reference
// models (§V-A, Table I) in Fig 5 order.
func Datasets() []DatasetConfig { return dataset.Registry() }

// DatasetByName looks up one reference model configuration.
func DatasetByName(name string) (DatasetConfig, error) { return dataset.ByName(name) }

// SolverFactory constructs a fresh, unbuilt Solver; the sharded executor
// and the per-shard planner instantiate one sub-solver per item partition
// through it.
type SolverFactory = mips.Factory

// ShardedConfig configures the item-sharded composite solver.
type ShardedConfig = shard.Config

// Sharded splits the item corpus into shards, builds one sub-solver per
// shard (optionally choosing a different strategy per shard via
// NewShardPlanner), fans queries out in parallel, and k-way merges the
// partial top-Ks. Results are identical to the unsharded solver's.
//
// With the ShardByNorm partitioner, queries automatically run in two waves
// (see QueryOptions): the largest-norm head shard answers first, each user's
// k-th head score seeds the tail shards' thresholds, and norm-sorted tail
// shards prune most of their scans — cross-shard threshold propagation. Set
// ShardedConfig.Schedule to ScheduleSingle to force the blind single-wave
// fan-out.
type Sharded = shard.Sharded

// ShardPlan describes one shard's item count, chosen strategy, and build
// count (the dirty-shard rebuild accounting).
type ShardPlan = shard.Plan

// WaveSchedule selects how a Sharded query fans out across shards and how
// completed shards' partial results tighten the floors of the rest (see
// ShardedConfig.Schedule and Sharded.SetSchedule): ScheduleTwoWave answers
// the head shard first and seeds every tail shard with its per-user k-th
// score; ScheduleSingle is the blind fan-out; ScheduleAuto resolves to
// two-wave when floor propagation is available and to single otherwise.
// Results are exact under every schedule.
type WaveSchedule = shard.Schedule

// The wave schedules, by canonical name ("auto", "single", "two-wave").
const (
	ScheduleAuto    = shard.AutoSchedule
	ScheduleSingle  = shard.SingleWave
	ScheduleTwoWave = shard.TwoWave
)

// ParseWaveSchedule maps a canonical schedule name to its WaveSchedule.
func ParseWaveSchedule(name string) (WaveSchedule, error) { return shard.ParseSchedule(name) }

// ShardMutationStats accounts for the dirty-shard mutation discipline:
// mutations applied, shards patched in place, shards rebuilt/re-planned.
type ShardMutationStats = shard.MutationStats

// NewSharded returns an unbuilt item-sharded composite solver.
//
// The composite is itself an ItemMutator: AddItems routes each arrival to
// the shard owning its norm range (ByNorm; order-based partitions extend
// the tail shard) and RemoveItems compacts only the owning shards — dirty
// shards are patched in place when the sub-solver mutates, rebuilt (and
// under NewShardPlanner re-planned, reusing the amortized shared
// measurement) when it does not, while clean shards keep their indexes
// untouched. Plans exposes per-shard build counts and MutationStats the
// patch/rebuild totals.
func NewSharded(cfg ShardedConfig) *Sharded { return shard.New(cfg) }

// ShardContiguous returns the default partitioner: equal consecutive item
// ranges (zero-copy sub-matrices).
func ShardContiguous() shard.Partitioner { return shard.Contiguous() }

// ShardByNorm returns the norm-sorted partitioner: shard 0 holds the
// largest-norm head of the catalog — the partition per-shard planning
// exploits on norm-skewed corpora, and the one that enables the two-wave
// floor-seeded query (see Sharded).
func ShardByNorm() shard.Partitioner { return shard.ByNorm() }

// NewShardPlanner returns a per-shard OPTIMUS planner for ShardedConfig:
// each shard runs the paper's sample-and-measure decision between BMM and
// the candidate indexes, so different shards can get different strategies.
// planK (<= 0 selects 10) is the top-K depth the measurement runs at.
func NewShardPlanner(cfg OptimusConfig, planK int, candidates ...SolverFactory) shard.Planner {
	return shard.NewOptimusPlanner(cfg, planK, candidates...)
}

// Coverage reports which shards answered a degraded-mode query: Answered of
// Shards responded, Skipped lists the quarantined or failed shard indexes,
// and ItemsCovered counts the catalog items actually searched. A Complete
// coverage is indistinguishable from a strict exact answer.
type Coverage = mips.Coverage

// PartialQuerier is the optional Solver refinement for graceful degradation:
// QueryPartial answers from the healthy shards and reports the gap as a
// Coverage instead of failing the whole query. The Sharded composite
// implements it; ServerConfig.AllowPartial exposes it through the server.
type PartialQuerier = mips.PartialQuerier

// ShardPanicError wraps a panic recovered inside one shard's query, build,
// or mutation path, preserving the panic value and stack. It surfaces
// wrapped in a ShardFaultError and transitions the shard to quarantine.
type ShardPanicError = shard.PanicError

// ShardFaultError attributes a strict-mode query failure to the shard that
// caused it (errors.As-compatible; Unwrap exposes the cause).
type ShardFaultError = shard.ShardError

// ErrShardQuarantined is the strict-mode error for queries that touch a
// shard currently quarantined or condemned; partial-mode queries report the
// same condition as a Coverage gap instead.
var ErrShardQuarantined = shard.ErrShardQuarantined

// ShardHealthState is one shard's lifecycle state: healthy, quarantined
// (failed, reviver working on it), or condemned (revival gave up; a full
// Build restores it).
type ShardHealthState = shard.HealthState

// The shard health states.
const (
	ShardHealthy     = shard.Healthy
	ShardQuarantined = shard.Quarantined
	ShardCondemned   = shard.Condemned
)

// ShardHealth is one shard's health record: state, quarantine cause, and
// completed-revival count.
type ShardHealth = shard.ShardHealth

// ShardWorker is the execution surface the sharded coordinator drives: one
// shard's query/mutate/snapshot/stats contract. The coordinator never
// touches a sub-solver directly — in-process shards are wrapped by
// NewShardWorker, remote shards arrive through a ShardWorkerDialer.
type ShardWorker = shard.Worker

// ShardWorkerCaps declares which optional surfaces a worker supports; the
// coordinator consults it instead of type-asserting, so a worker reached
// across a wire reports what its far-side solver supports.
type ShardWorkerCaps = shard.WorkerCaps

// ShardWorkerDialer connects shard index i to its worker during Build/Load,
// receiving the shard's persisted snapshot section so a remote worker can
// boot its sub-solver from it. Set it on ShardedConfig.WorkerDialer; nil
// keeps every shard in-process.
type ShardWorkerDialer = shard.WorkerDialer

// NewShardWorker wraps a sub-solver as an in-process ShardWorker — the same
// adapter the coordinator uses for local shards, and the loopback
// transport's server side.
func NewShardWorker(s Solver) ShardWorker { return shard.NewWorker(s) }

// LoopbackTransport dials workers through the full wire codec in-process:
// every coordinator↔worker exchange is encoded, framed, and decoded exactly
// as it would be across a network, with zero transport latency — the
// serialization-faithful harness the equivalence and fault-injection suites
// pin the wire path against. Its Wrap hook interposes on each shard's
// connection (fault injection); Stats meters dials, calls, and bytes.
type LoopbackTransport = transport.Loopback

// NewLoopbackTransport returns a loopback transport; pass Dialer() to
// ShardedConfig.WorkerDialer.
func NewLoopbackTransport() *LoopbackTransport { return transport.NewLoopback() }

// TransportStats counts a transport's worker dials, request/reply
// exchanges, and bytes moved each way.
type TransportStats = transport.Stats

// ServerConfig configures the micro-batching request server.
type ServerConfig = serving.Config

// Server batches concurrent single-user requests onto one solver — the
// Clipper-style online deployment §II-A of the paper describes. Batches form
// from whatever queued while the previous solver call ran (no batching
// window), capped at ServerConfig.MaxBatch. Construct with NewServer around a
// built Solver.
type Server = serving.Server

// ErrServerClosed is returned by Server.Query after Close.
var ErrServerClosed = serving.ErrClosed

// ErrServerNotMutable is returned by Server.Mutate when the underlying
// solver does not implement ItemMutator.
var ErrServerNotMutable = serving.ErrNotMutable

// NewServer starts a micro-batching server around an already-built solver.
// When the solver is an ItemMutator, Server.Mutate applies catalog churn
// with the generation-safe drain handshake: the in-flight batch finishes
// against the old index, the mutation lands exclusively, and
// Stats.Generation advances (only when the catalog actually changed — an
// fn that performs no successful item mutation leaves it alone).
func NewServer(solver Solver, cfg ServerConfig) (*Server, error) {
	return serving.New(solver, cfg)
}

// MutationLog is the batched mutation log (Server.Log): catalog events
// enqueue and coalesce — a remove of a still-pending add annihilates both,
// later remove ids are rewritten through the positional compaction — and a
// flush applies the whole batch as at most one AddItems plus one
// RemoveItems under a single drain and generation tick. Flush-equivalence
// is exact: the flushed index answers entry-for-entry like one-at-a-time
// application of the same events.
type MutationLog = mutlog.Log

// MutationLogConfig controls the log's flush policy: MaxEvents (size
// trigger, applied synchronously at enqueue) and MaxDelay (staleness bound,
// enforced by a background flusher). Zero values select defaults; negative
// values disable a trigger.
type MutationLogConfig = mutlog.Config

// MutationLogStats snapshots the log's pending/flushed/cancelled counters.
type MutationLogStats = mutlog.Stats

// MutationHandle identifies one enqueued item across the flush boundary:
// provisional while pending, resolved (MutationLog.Resolve) to the real
// assigned id by the flush that applies it, and kept current through later
// logged removals.
type MutationHandle = mutlog.Handle

// Persister is the optional Solver refinement for versioned snapshots:
// Save writes a self-describing binary image of the built index and Load
// reconstructs it into an exact replica — loaded state answers queries
// entry-for-entry (bit-for-bit) like the saved solver, and Generation is
// preserved. Load never panics on corrupt input and never aliases the
// reader's bytes. Every solver implements it, including the Sharded
// composite, whose stream is the shard manifest.
type Persister = mips.Persister

// SaveSolver writes a built solver's snapshot. The solver must implement
// Persister (all shipped solvers do).
func SaveSolver(w io.Writer, s Solver) error {
	p, ok := s.(mips.Persister)
	if !ok {
		return fmt.Errorf("optimus: solver %s does not support snapshots", s.Name())
	}
	return p.Save(w)
}

// LoadSolver reconstructs a solver from a snapshot stream, dispatching on
// the kind string embedded in the header — the inverse of SaveSolver when
// the concrete type is not known in advance.
func LoadSolver(r io.Reader) (Solver, error) {
	ls, err := persist.LoadAny(r)
	if err != nil {
		return nil, err
	}
	s, ok := ls.(mips.Solver)
	if !ok {
		return nil, fmt.Errorf("optimus: snapshot holds a %T, not a solver", ls)
	}
	return s, nil
}

// RestoreServer rebuilds a Server from a Server.Snapshot stream. Pass a nil
// solver to reconstruct the embedded solver through the snapshot registry,
// or a concrete unbuilt solver to keep its runtime configuration. The
// restored server resumes at the snapshot's generation; Server.Replay rolls
// it forward through the crashed incarnation's mutation journal to the
// exact pre-crash state.
func RestoreServer(r io.Reader, solver Solver, cfg ServerConfig) (*Server, error) {
	return serving.Restore(r, solver, cfg)
}

// MutationReplayStats reports what a journal replay consumed: events
// re-enqueued, flush markers honored, records already covered by the
// snapshot, and whether the journal ended in a torn tail.
type MutationReplayStats = mutlog.ReplayStats

// VerifyTopK checks that got is exactly the top-k answer for the given user
// vector against the items: the Naive reference's entries, in its order,
// with == scores. Every solver sums each score in Naive's order, so no
// tolerance is needed.
func VerifyTopK(user []float64, items *Matrix, got []Entry, k int) error {
	u, err := mat.FromSlice(1, len(user), user)
	if err != nil {
		return err
	}
	return mips.VerifyAll(u, items, [][]Entry{got}, k)
}

// VerifyAll checks that results, one row per user, are exactly the Naive
// reference's top-k: the same entries in the same order, with == scores.
func VerifyAll(users, items *Matrix, results [][]Entry, k int) error {
	return mips.VerifyAll(users, items, results, k)
}
