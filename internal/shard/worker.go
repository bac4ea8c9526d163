// The Worker contract: the minimal per-shard boundary between the Sharded
// coordinator and whatever executes one shard's sub-solver. The coordinator
// never touches a sub-solver directly — it speaks only Worker, so an
// in-process solver (NewWorker) and a remote process reached through a wire
// codec (internal/transport) are interchangeable behind the same fan-out,
// merge, floor-propagation, and quarantine/revival machinery.
//
// The contract is deliberately minimal: one query entry point covering every
// dispatch mode the coordinator uses (ctx, static floors), the
// three mutation calls the dirty-shard paths need, a snapshot for persistence
// and revival, scan accounting, and a static capability word. Capabilities
// are reported once at attach time (Caps) instead of probed per call with
// type assertions — the query hot path stays allocation-free, and a remote
// worker's capabilities survive the wire without interface identity.
package shard

import (
	"context"
	"fmt"

	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/persist"
	"optimus/internal/topk"
)

// WorkerCaps is a worker's static capability word: which optional parts of
// the contract the underlying solver actually implements. The coordinator
// gates on these exactly where it used to gate on interface assertions —
// the mutation patch paths, scan accounting, snapshot capture. Queries need
// no capability: every solver answers floors and deadlines through
// mips.Solver.QueryCtx. A transport client forwards the worker-side word
// verbatim.
type WorkerCaps struct {
	// Batches mirrors mips.Solver.Batches.
	Batches bool
	// Mutable: AddItems/RemoveItems patch in place (mips.ItemMutator).
	Mutable bool
	// UserAdds: AddUsers extends the user matrix (mips.UserAdder).
	UserAdds bool
	// Scans: ScanStats/ResetScanStats are live meters (mips.ScanCounter).
	Scans bool
	// Snapshots: Snapshot serializes the solver (mips.Persister).
	Snapshots bool
	// Sized: the solver reports its item count (mips.Sized), and Items is
	// that count when the worker was created — for a worker booted from a
	// persist section, the count the section restored, which Load and
	// revival check against the shard's. Items does not follow later
	// mutations.
	Sized bool
	Items int
}

// Worker is the per-shard execution contract. Exactly one worker serves one
// shard at a time; the coordinator serializes mutations against queries
// (callers' contract, unchanged from mips), so implementations need only the
// concurrency their underlying solver already guarantees (concurrent
// queries, exclusive mutation).
//
// Query is the single dispatch entry point. ctx may be nil (never cancels);
// floors may be nil (a blind query). The floor contract is
// mips.Solver.QueryCtx's: seeded results must be a prefix of the unseeded
// ones with ties at the floor retained. The coordinator always passes a nil
// board and implementations ignore it: the parameter stays only because
// benchmark/trace.go's tracedWorker implements this exact signature, and it
// goes when Query takes mips.QueryOptions instead (ROADMAP item 6).
//
// Error semantics carry the containment policy (health.go settle): a context
// error returned from Query must satisfy errors.Is against context.Canceled
// or context.DeadlineExceeded — transports rehydrate the sentinel values so
// a deadline on the far side never quarantines the shard. Any other error
// (or panic, which the coordinator recovers) quarantines.
//
// Snapshot returns the solver's self-describing persist section — the same
// bytes shard.Save embeds in the manifest and a transport ships to boot a
// remote worker (persist.LoadAny). Close releases worker-side resources;
// the in-process worker's Close is a no-op.
type Worker interface {
	Query(ctx context.Context, userIDs []int, k int, floors []float64, board *topk.FloorBoard) ([][]topk.Entry, error)
	AddItems(items *mat.Matrix) ([]int, error)
	RemoveItems(local []int) error
	AddUsers(users *mat.Matrix) ([]int, error)
	Snapshot() ([]byte, error)
	ScanStats() mips.ScanStats
	ResetScanStats()
	SetThreads(n int)
	Caps() WorkerCaps
	Close() error
}

// WorkerDialer connects one shard to a (possibly remote) worker. The section
// argument is the shard's self-describing persist section (the solver
// snapshot nested in the manifest's `shard%d` section): shipping a shard IS
// sending a section — the dialed side boots by persist.LoadAny-ing it. A
// dialer is called at Build and at every later rebuild (from a fresh
// snapshot of the just-built sub-solver), at Load (from the manifest's
// stored section), and at revival (from the retained snapshot or a
// rebuild).
//
// At Load and revival the dialed worker is the only decoder of its section:
// the coordinator does not rebuild the sub-solver to check it, but reads
// the worker's capability word, whose item count (Sized, Items) must equal
// the manifest's. Load dials its shards concurrently, so a dialer must be
// safe to call from several goroutines. At Load the section is a view of
// the restored stream, so a dialer that keeps it past the call clones it,
// or it pins the whole stream. Dial errors fail the operation that
// triggered them, and a worker dialed for a replacement that is not
// committed is closed: a failed Build, Load, mutation, repair or AddUsers,
// and a revival a mutation made stale, leave no dialed worker open. At
// query time a dialed worker's failures route through the ordinary
// quarantine machinery.
type WorkerDialer func(shard int, section []byte) (Worker, error)

// NewWorker wraps a built sub-solver in the in-process Worker. All optional
// interfaces are asserted once here, so the worker dispatches through cached
// fields.
func NewWorker(solver mips.Solver) Worker {
	w := &localWorker{solver: solver}
	w.im, _ = solver.(mips.ItemMutator)
	w.ua, _ = solver.(mips.UserAdder)
	w.scn, _ = solver.(mips.ScanCounter)
	w.ts, _ = solver.(mips.ThreadSetter)
	w.p, _ = solver.(mips.Persister)
	w.caps = WorkerCaps{
		Batches:   solver.Batches(),
		Mutable:   w.im != nil,
		UserAdds:  w.ua != nil,
		Scans:     w.scn != nil,
		Snapshots: w.p != nil,
	}
	if sz, ok := solver.(mips.Sized); ok {
		w.caps.Sized, w.caps.Items = true, sz.NumItems()
	}
	return w
}

// localWorker executes a shard's sub-solver in-process — the Worker every
// deployment starts from, and the one a transport handler hosts on the far
// side of a wire.
type localWorker struct {
	solver mips.Solver
	caps   WorkerCaps

	// Optional interfaces, asserted once at NewWorker.
	im  mips.ItemMutator
	ua  mips.UserAdder
	scn mips.ScanCounter
	ts  mips.ThreadSetter
	p   mips.Persister
}

// Solver exposes the wrapped sub-solver for in-process callers that need the
// raw mips surface (the transport handler's capability probe, tests arming
// fault wrappers). Remote workers have no equivalent — the coordinator never
// calls this.
func (w *localWorker) Solver() mips.Solver { return w.solver }

// Query implements Worker through the solver's QueryCtx; board is always nil
// (see Worker).
func (w *localWorker) Query(ctx context.Context, userIDs []int, k int, floors []float64, _ *topk.FloorBoard) ([][]topk.Entry, error) {
	return w.solver.QueryCtx(ctx, userIDs, k, mips.QueryOptions{Floors: floors})
}

// AddItems implements Worker (gated by Caps().Mutable).
func (w *localWorker) AddItems(items *mat.Matrix) ([]int, error) {
	if w.im == nil {
		return nil, errNotCapable("AddItems", w.solver.Name())
	}
	return w.im.AddItems(items)
}

// RemoveItems implements Worker (gated by Caps().Mutable).
func (w *localWorker) RemoveItems(local []int) error {
	if w.im == nil {
		return errNotCapable("RemoveItems", w.solver.Name())
	}
	return w.im.RemoveItems(local)
}

// AddUsers implements Worker (gated by Caps().UserAdds).
func (w *localWorker) AddUsers(users *mat.Matrix) ([]int, error) {
	if w.ua == nil {
		return nil, errNotCapable("AddUsers", w.solver.Name())
	}
	return w.ua.AddUsers(users)
}

// Snapshot implements Worker (gated by Caps().Snapshots).
func (w *localWorker) Snapshot() ([]byte, error) {
	return mips.SnapshotBytes(w.solver)
}

// ScanStats implements Worker (zero when the solver is unmetered).
func (w *localWorker) ScanStats() mips.ScanStats {
	if w.scn == nil {
		return mips.ScanStats{}
	}
	return w.scn.ScanStats()
}

// ResetScanStats implements Worker.
func (w *localWorker) ResetScanStats() {
	if w.scn != nil {
		w.scn.ResetScanStats()
	}
}

// SetThreads implements Worker.
func (w *localWorker) SetThreads(n int) {
	if w.ts != nil {
		w.ts.SetThreads(n)
	}
}

// Caps implements Worker.
func (w *localWorker) Caps() WorkerCaps { return w.caps }

// Close implements Worker: the in-process worker holds no resources beyond
// the solver itself, which the garbage collector owns.
func (w *localWorker) Close() error { return nil }

// errNotCapable names a contract call the underlying solver cannot serve —
// reachable only when a caller ignores the capability word.
func errNotCapable(op, solver string) error {
	return &workerCapError{op: op, solver: solver}
}

type workerCapError struct{ op, solver string }

func (e *workerCapError) Error() string {
	return "shard: worker " + e.op + ": solver " + e.solver + " lacks the capability"
}

// attach installs a worker and caches its capability word. Every path that
// gives a shard a worker — build, load, revival, test arming — goes
// through here so w and caps never diverge.
func (sh *shardState) attach(w Worker) {
	sh.w = w
	sh.caps = w.Caps()
}

// attachWorker routes a freshly built local sub-solver to its worker: in
// process when no dialer is configured, otherwise snapshotted into its
// persist section and dialed — the section is the shipping unit, so a
// remote worker boots from exactly the bytes Save would have written.
func (s *Sharded) attachWorker(sh *shardState, si int, solver mips.Solver) error {
	if s.cfg.WorkerDialer == nil {
		sh.attach(NewWorker(solver))
		return nil
	}
	section, err := mips.SnapshotBytes(solver)
	if err != nil {
		return fmt.Errorf("shard %d: snapshotting for worker dial: %w", si, err)
	}
	w, err := s.dialWorker(si, section)
	if err != nil {
		return err
	}
	sh.attach(w)
	return nil
}

// dialWorker connects one shard to its worker from a persist section via the
// configured dialer.
func (s *Sharded) dialWorker(si int, section []byte) (Worker, error) {
	w, err := s.cfg.WorkerDialer(si, section)
	if err != nil {
		return nil, fmt.Errorf("shard %d: dialing worker: %w", si, err)
	}
	return w, nil
}

// bootShard gives shard si a worker booted from its persist section — the
// one path Load and revival share. Under a dialer the section goes to the
// dialed worker, which decodes it on its side; in process it is decoded
// here. Either way it is decoded exactly once, and the booted worker's item
// count must match the shard's, or the worker is closed and nothing is
// attached. Safe to run for different shards concurrently.
func (s *Sharded) bootShard(sh *shardState, si int, section []byte) error {
	var w Worker
	if s.cfg.WorkerDialer != nil {
		var err error
		if w, err = s.dialWorker(si, section); err != nil {
			return err
		}
	} else {
		ls, err := persist.LoadAny(persist.FromBytes(section))
		if err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
		sub, ok := ls.(mips.Solver)
		if !ok {
			return fmt.Errorf("shard %d: snapshot kind is not a solver", si)
		}
		w = NewWorker(sub)
	}
	if c := w.Caps(); c.Sized && c.Items != sh.count {
		w.Close()
		return fmt.Errorf("shard %d: sub-solver holds %d items, manifest says %d", si, c.Items, sh.count)
	}
	w.SetThreads(s.cfg.Threads)
	sh.attach(w)
	return nil
}

// discard closes the workers of shard states being dropped: the state a
// commit replaces, and staged states that will not be committed — a Build
// or Load that failed part-way, a mutation or AddUsers whose later stage
// failed, a revival gone stale. Zero and dead states hold no worker.
func discard(dropped ...shardState) {
	for i := range dropped {
		if w := dropped[i].w; w != nil {
			w.Close()
		}
	}
}
