// Package faulty wraps any mips.Solver with a deterministic fault-injection
// plan: errors, panics, latency, and torn mutations fired on exactly the Nth
// call of an operation class, or drawn at a seeded rate. It exists for the
// fault-containment test suites — the shard quarantine/revival matrix, the
// serving deadline tests, and the chaos soak — which need failures that are
// reproducible call-for-call under -race and across runs.
//
// The wrapper forwards every optional solver interface the repository's
// composites probe for. Queries fire the plan's fault and then reach the
// inner solver's own method, so QueryCtx hands floors, a live board and the
// deadline through unchanged. Mutation and persistence calls on an incapable
// inner return errors, mirroring how the composites treat missing
// interfaces.
//
// Snapshots pass through to the inner solver, so a snapshot Saved through a
// wrapper restores as the bare inner solver — a revived shard sheds its
// fault plan, which is exactly what the revival tests want: the replacement
// must behave like a healthy shard.
package faulty

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/topk"
)

// Op classifies the wrapper's entry points for fault matching. Every query
// method (Query, QueryAll, QueryCtx) counts as one OpQuery call; AddItems,
// RemoveItems, and AddUsers as OpMutate; Save and Load as OpPersist.
type Op int

// Operation classes.
const (
	OpQuery Op = iota
	OpBuild
	OpMutate
	OpPersist
	numOps
)

// String names the op for failure messages.
func (o Op) String() string {
	switch o {
	case OpQuery:
		return "query"
	case OpBuild:
		return "build"
	case OpMutate:
		return "mutate"
	case OpPersist:
		return "persist"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Kind selects what an armed fault does.
type Kind int

// Fault kinds.
const (
	// KindError returns the fault's Err without touching the inner solver.
	KindError Kind = iota
	// KindPanic panics with a descriptive value before the inner call.
	KindPanic
	// KindLatency sleeps for the fault's Latency before the inner call. On a
	// ctx-carrying query the sleep races ctx.Done and returns ctx.Err() if
	// cancellation wins — the "hung shard that eventually notices" model. On
	// ctx-less paths the sleep runs to completion: a stall the caller cannot
	// interrupt.
	KindLatency
	// KindTorn applies the inner mutation first and THEN reports failure —
	// the torn write: state advanced, caller told otherwise. Only meaningful
	// for OpMutate; on other ops it degrades to KindError.
	KindTorn
)

// String names the kind for failure messages.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindLatency:
		return "latency"
	case KindTorn:
		return "torn"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ErrInjected is the default error KindError and KindTorn faults surface.
var ErrInjected = errors.New("faulty: injected fault")

// Fault is one scheduled failure: the Call-th invocation (1-based) of Op
// fires Kind. Latency and Err default to the Plan's when zero/nil.
type Fault struct {
	Op      Op
	Call    int
	Kind    Kind
	Latency time.Duration
	Err     error
}

// Plan is a wrapper's complete fault schedule. Faults lists deterministic
// call-indexed failures; independently, Rate > 0 arms a seeded random draw
// on every un-scheduled call, choosing uniformly among Kinds (KindError only
// when Kinds is empty). The two modes compose: the matrix tests pin exact
// calls, the chaos soak sets a rate and a seed.
type Plan struct {
	Faults  []Fault
	Seed    int64
	Rate    float64
	Kinds   []Kind
	Latency time.Duration // default latency for KindLatency faults
	Err     error         // default error for KindError/KindTorn faults
}

// Solver wraps an inner solver with a fault plan. Safe for concurrent use:
// the call counters and the rng sit behind a mutex, matching the inner
// contract that queries may run concurrently.
type Solver struct {
	inner mips.Solver
	plan  Plan

	mu    sync.Mutex
	calls [numOps]int64
	rng   *rand.Rand
}

// Wrap returns inner wrapped with the given plan.
func Wrap(inner mips.Solver, plan Plan) *Solver {
	if plan.Err == nil {
		plan.Err = ErrInjected
	}
	if plan.Latency == 0 {
		plan.Latency = time.Millisecond
	}
	return &Solver{inner: inner, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Inner returns the wrapped solver (tests unwrap to reach the oracle).
func (s *Solver) Inner() mips.Solver { return s.inner }

// Calls reports how many times the given op class has been entered.
func (s *Solver) Calls(op Op) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[op]
}

// next advances the op's call counter and returns the fault armed for this
// call, or nil. Scheduled faults win over the rate draw; the rng is consumed
// only on calls the schedule leaves open, so adding a scheduled fault does
// not shift the random sequence of other ops... it does shift this op's — a
// plan is deterministic as a whole, not per fault.
func (s *Solver) next(op Op) *Fault {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls[op]++
	n := s.calls[op]
	for i := range s.plan.Faults {
		f := &s.plan.Faults[i]
		if f.Op == op && int64(f.Call) == n {
			return s.filled(f)
		}
	}
	if s.plan.Rate > 0 && s.rng.Float64() < s.plan.Rate {
		kind := KindError
		if len(s.plan.Kinds) > 0 {
			kind = s.plan.Kinds[s.rng.Intn(len(s.plan.Kinds))]
		}
		return s.filled(&Fault{Op: op, Call: int(n), Kind: kind})
	}
	return nil
}

// filled copies f with the plan's defaults applied.
func (s *Solver) filled(f *Fault) *Fault {
	g := *f
	if g.Err == nil {
		g.Err = s.plan.Err
	}
	if g.Latency == 0 {
		g.Latency = s.plan.Latency
	}
	return &g
}

// inject fires a non-torn fault: returns an error, panics, or sleeps. A nil
// return means the call should proceed to the inner solver. ctx may be nil
// (uninterruptible sleep).
func (s *Solver) inject(ctx context.Context, f *Fault) error {
	if f == nil {
		return nil
	}
	switch f.Kind {
	case KindPanic:
		panic(fmt.Sprintf("faulty: injected panic (%s call %d)", f.Op, f.Call))
	case KindLatency:
		if ctx == nil {
			time.Sleep(f.Latency)
			return nil
		}
		t := time.NewTimer(f.Latency)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	default: // KindError, and KindTorn outside a mutation
		return f.Err
	}
}

// --- Solver ---

// Name implements mips.Solver.
func (s *Solver) Name() string { return "Faulty(" + s.inner.Name() + ")" }

// Batches implements mips.Solver.
func (s *Solver) Batches() bool { return s.inner.Batches() }

// Build implements mips.Solver.
func (s *Solver) Build(users, items *mat.Matrix) error {
	if err := s.inject(nil, s.next(OpBuild)); err != nil {
		return err
	}
	return s.inner.Build(users, items)
}

// Query implements mips.Solver.
func (s *Solver) Query(userIDs []int, k int) ([][]topk.Entry, error) {
	if err := s.inject(nil, s.next(OpQuery)); err != nil {
		return nil, err
	}
	return s.inner.Query(userIDs, k)
}

// QueryAll implements mips.Solver.
func (s *Solver) QueryAll(k int) ([][]topk.Entry, error) {
	if err := s.inject(nil, s.next(OpQuery)); err != nil {
		return nil, err
	}
	return s.inner.QueryAll(k)
}

// QueryCtx implements mips.Solver. Fault latency races ctx.Done; past the
// injection point the inner solver polls ctx itself.
func (s *Solver) QueryCtx(ctx context.Context, userIDs []int, k int, opts mips.QueryOptions) ([][]topk.Entry, error) {
	if err := s.inject(ctx, s.next(OpQuery)); err != nil {
		return nil, err
	}
	return s.inner.QueryCtx(ctx, userIDs, k, opts)
}

// --- mutation ---

// AddItems implements mips.ItemMutator. KindTorn applies the mutation and
// then reports failure — the shard layer's repair path must reconcile.
func (s *Solver) AddItems(items *mat.Matrix) ([]int, error) {
	im, ok := s.inner.(mips.ItemMutator)
	if !ok {
		return nil, fmt.Errorf("faulty: inner %s is not an ItemMutator", s.inner.Name())
	}
	f := s.next(OpMutate)
	if f != nil && f.Kind == KindTorn {
		if ids, err := im.AddItems(items); err != nil {
			return ids, err
		}
		return nil, f.Err
	}
	if err := s.inject(nil, f); err != nil {
		return nil, err
	}
	return im.AddItems(items)
}

// RemoveItems implements mips.ItemMutator.
func (s *Solver) RemoveItems(ids []int) error {
	im, ok := s.inner.(mips.ItemMutator)
	if !ok {
		return fmt.Errorf("faulty: inner %s is not an ItemMutator", s.inner.Name())
	}
	f := s.next(OpMutate)
	if f != nil && f.Kind == KindTorn {
		if err := im.RemoveItems(ids); err != nil {
			return err
		}
		return f.Err
	}
	if err := s.inject(nil, f); err != nil {
		return err
	}
	return im.RemoveItems(ids)
}

// Generation implements mips.ItemMutator (0 when the inner cannot mutate —
// never reached through the composites, which gate on the interface).
func (s *Solver) Generation() uint64 {
	if im, ok := s.inner.(mips.ItemMutator); ok {
		return im.Generation()
	}
	return 0
}

// AddUsers implements mips.UserAdder.
func (s *Solver) AddUsers(users *mat.Matrix) ([]int, error) {
	ua, ok := s.inner.(mips.UserAdder)
	if !ok {
		return nil, fmt.Errorf("faulty: inner %s is not a UserAdder", s.inner.Name())
	}
	f := s.next(OpMutate)
	if f != nil && f.Kind == KindTorn {
		if ids, err := ua.AddUsers(users); err != nil {
			return ids, err
		}
		return nil, f.Err
	}
	if err := s.inject(nil, f); err != nil {
		return nil, err
	}
	return ua.AddUsers(users)
}

// --- persistence ---

// Save implements mips.Persister. The stream written is the INNER solver's
// snapshot (see the package comment: revival sheds the wrapper).
func (s *Solver) Save(w io.Writer) error {
	p, ok := s.inner.(mips.Persister)
	if !ok {
		return fmt.Errorf("faulty: inner %s is not a Persister", s.inner.Name())
	}
	if err := s.inject(nil, s.next(OpPersist)); err != nil {
		return err
	}
	return p.Save(w)
}

// Load implements mips.Persister.
func (s *Solver) Load(r io.Reader) error {
	p, ok := s.inner.(mips.Persister)
	if !ok {
		return fmt.Errorf("faulty: inner %s is not a Persister", s.inner.Name())
	}
	if err := s.inject(nil, s.next(OpPersist)); err != nil {
		return err
	}
	return p.Load(r)
}

// --- passthrough capabilities ---

// NumUsers implements mips.Sized (0 before Build or when the inner cannot
// report sizes).
func (s *Solver) NumUsers() int {
	if sz, ok := s.inner.(mips.Sized); ok {
		return sz.NumUsers()
	}
	return 0
}

// NumItems implements mips.Sized.
func (s *Solver) NumItems() int {
	if sz, ok := s.inner.(mips.Sized); ok {
		return sz.NumItems()
	}
	return 0
}

// SetThreads implements mips.ThreadSetter.
func (s *Solver) SetThreads(n int) {
	if ts, ok := s.inner.(mips.ThreadSetter); ok {
		ts.SetThreads(n)
	}
}

// ScanStats implements mips.ScanCounter.
func (s *Solver) ScanStats() mips.ScanStats {
	if sc, ok := s.inner.(mips.ScanCounter); ok {
		return sc.ScanStats()
	}
	return mips.ScanStats{}
}

// ResetScanStats implements mips.ScanCounter.
func (s *Solver) ResetScanStats() {
	if sc, ok := s.inner.(mips.ScanCounter); ok {
		sc.ResetScanStats()
	}
}

// Interface conformance.
var (
	_ mips.Solver       = (*Solver)(nil)
	_ mips.ItemMutator  = (*Solver)(nil)
	_ mips.UserAdder    = (*Solver)(nil)
	_ mips.Persister    = (*Solver)(nil)
	_ mips.Sized        = (*Solver)(nil)
	_ mips.ThreadSetter = (*Solver)(nil)
	_ mips.ScanCounter  = (*Solver)(nil)
)
