// Query-path fault containment (ISSUE 8): panic isolation, shard health
// tracking, and background revival.
//
// Every per-shard query dispatch runs under a deferred recover that converts
// a sub-solver panic into a typed *PanicError, so one shard's bug can never
// unwind the composite's fan-out (or the serving loop above it). A shard
// whose sub-solver faults — panics, or errors on a request the composite
// already validated — transitions healthy → quarantined in the health
// tracker: strict queries fail closed with a *ShardError naming the shard,
// partial queries (QueryPartial) skip it and report the gap in their
// Coverage. Context errors never quarantine: a deadline firing inside a
// shard says nothing about the shard's health.
//
// A quarantined shard is revived by a background goroutine, started lazily at
// first quarantine and exiting when nothing is left to revive. Revival
// restores the sub-solver from its retained snapshot section (the PR 6
// persistence format, kept per shard when Config.RetainShardSnapshots is
// set) or falls back to a fresh rebuild/re-plan over the shard's current
// sub-corpus, then commits the replacement under the composite's state lock
// — the same drain boundary, and the same stage/commit path (mutate.go),
// mutations use — after checking that no mutation advanced the corpus epoch
// mid-build (if one did, the replacement is closed and the build retried
// against the new corpus). A shard that fails maxReviveAttempts consecutive
// revival attempts is condemned: it stays out of service until the next
// full Build or a mutation rebuilds it.
package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// PanicError is a sub-solver panic recovered at the shard boundary: the
// panic value plus the goroutine stack at recovery time. It surfaces wrapped
// in a *ShardError attributing it to the shard that paniced.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// ShardError attributes a query- or mutation-path failure to one shard. Its
// text matches the historical "shard %d (%s): %v" wrapping, so error-string
// consumers are unaffected; errors.As now additionally recovers the shard id
// and plan name structurally.
type ShardError struct {
	Shard int
	Plan  string
	Err   error
}

func (e *ShardError) Error() string { return fmt.Sprintf("shard %d (%s): %v", e.Shard, e.Plan, e.Err) }
func (e *ShardError) Unwrap() error { return e.Err }

// ErrShardQuarantined is the strict-mode error cause for a query that
// reached a shard currently out of service (wrapped in a *ShardError naming
// it). Partial-mode queries skip the shard instead.
var ErrShardQuarantined = errors.New("shard quarantined")

// HealthState is one shard's position in the containment lifecycle.
type HealthState int32

const (
	// Healthy shards serve queries normally.
	Healthy HealthState = iota
	// Quarantined shards are skipped (partial) or fail closed (strict)
	// while the background reviver works on them.
	Quarantined
	// Condemned shards exhausted maxReviveAttempts revival attempts; they
	// stay out of service until a full Build or a mutation rebuilds them.
	Condemned
)

func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Quarantined:
		return "quarantined"
	case Condemned:
		return "condemned"
	}
	return fmt.Sprintf("HealthState(%d)", int32(h))
}

// ShardHealth is one shard's entry in the Health report.
type ShardHealth struct {
	Shard int
	State HealthState
	// Cause is the fault that quarantined the shard (nil when healthy).
	Cause error
	// Revivals counts completed revivals since Build — the observable trace
	// that containment ran.
	Revivals int
}

const (
	// maxReviveAttempts bounds consecutive failed revival attempts per
	// quarantine before the shard is condemned.
	maxReviveAttempts = 5
	reviveBaseBackoff = time.Millisecond
	reviveMaxBackoff  = 100 * time.Millisecond
)

// resetHealth sizes the health tracker for a fresh shard set (Build/Load).
func (s *Sharded) resetHealth(n int) {
	s.health = make([]atomic.Int32, n)
	s.hmu.Lock()
	s.causes = make([]error, n)
	s.attempts = make([]int, n)
	s.revivals = make([]int, n)
	s.hmu.Unlock()
}

// healthOf reads one shard's state; shards outside the tracker (an unbuilt
// composite) read healthy.
func (s *Sharded) healthOf(si int) HealthState {
	if si >= len(s.health) {
		return Healthy
	}
	return HealthState(s.health[si].Load())
}

// quarantine transitions shard si healthy → quarantined and kicks the
// reviver. Safe under the query path's read lock: it touches only the
// atomic state word and the hmu-guarded bookkeeping, never stateMu. Later
// faults on an already-quarantined shard are no-ops (first cause wins).
func (s *Sharded) quarantine(si int, cause error) {
	if si >= len(s.health) || !s.health[si].CompareAndSwap(int32(Healthy), int32(Quarantined)) {
		return
	}
	s.hmu.Lock()
	s.causes[si] = cause
	s.attempts[si] = 0
	s.hmu.Unlock()
	s.kickReviver()
}

// healOne marks shard si healthy again. Called with stateMu held (reviver
// swap, mutation rebuild of a quarantined shard).
func (s *Sharded) healOne(si int, revived bool) {
	if si >= len(s.health) {
		return
	}
	s.health[si].Store(int32(Healthy))
	s.hmu.Lock()
	s.causes[si] = nil
	s.attempts[si] = 0
	if revived {
		s.revivals[si]++
	}
	s.hmu.Unlock()
}

// Health reports every shard's containment state. The slice is a snapshot;
// states may move as the reviver works.
func (s *Sharded) Health() []ShardHealth {
	s.hmu.Lock()
	defer s.hmu.Unlock()
	out := make([]ShardHealth, len(s.health))
	for i := range out {
		out[i] = ShardHealth{
			Shard: i,
			State: HealthState(s.health[i].Load()),
			Cause: s.causes[i],
		}
		if i < len(s.revivals) {
			out[i].Revivals = s.revivals[i]
		}
	}
	return out
}

// AwaitHealthy blocks until every shard is healthy or the timeout elapses.
// It returns nil when the composite is fully healthy, and otherwise an error
// naming the first shard still out of service — tests and operators use it
// as the barrier between "fault observed" and "containment complete".
func (s *Sharded) AwaitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		bad := -1
		var state HealthState
		for i := range s.health {
			if st := HealthState(s.health[i].Load()); st != Healthy {
				bad, state = i, st
				break
			}
		}
		if bad < 0 {
			return nil
		}
		if state == Condemned || time.Now().After(deadline) {
			s.hmu.Lock()
			cause := s.causes[bad]
			s.hmu.Unlock()
			return fmt.Errorf("shard %d still %s (cause: %v)", bad, state, cause)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// kickReviver starts the background reviver if it is not running and pokes
// it. The goroutine is lazy — a composite that never faults never spawns it
// — and exits when no revivable shard remains, so fault-free lifecycles and
// goroutine-leak checks see nothing.
func (s *Sharded) kickReviver() {
	s.hmu.Lock()
	if s.reviveKick == nil {
		s.reviveKick = make(chan struct{}, 1)
	}
	start := !s.reviverOn
	s.reviverOn = true
	kick := s.reviveKick
	s.hmu.Unlock()
	select {
	case kick <- struct{}{}:
	default:
	}
	if start {
		go s.reviver()
	}
}

// nextRevivable picks the lowest quarantined shard with attempts remaining,
// condemning any that exhausted theirs. Returns -1 when nothing is left.
func (s *Sharded) nextRevivable() int {
	s.hmu.Lock()
	defer s.hmu.Unlock()
	for i := range s.health {
		if HealthState(s.health[i].Load()) != Quarantined {
			continue
		}
		if s.attempts[i] >= maxReviveAttempts {
			s.health[i].Store(int32(Condemned))
			continue
		}
		return i
	}
	return -1
}

// reviver is the background revival loop: pick a quarantined shard, revive
// it, back off exponentially on failure, exit when nothing is revivable.
func (s *Sharded) reviver() {
	backoff := reviveBaseBackoff
	for {
		si := s.nextRevivable()
		if si < 0 {
			// Exit protocol: re-check under hmu after clearing the kick so a
			// quarantine landing between nextRevivable and here cannot be
			// lost (it either re-kicks the drained channel or sees reviverOn
			// false and restarts the goroutine).
			s.hmu.Lock()
			select {
			case <-s.reviveKick:
				s.hmu.Unlock()
				continue
			default:
			}
			s.reviverOn = false
			s.hmu.Unlock()
			return
		}
		if s.reviveShard(si) {
			backoff = reviveBaseBackoff
			continue
		}
		s.hmu.Lock()
		s.attempts[si]++
		s.hmu.Unlock()
		time.Sleep(backoff)
		if backoff *= 2; backoff > reviveMaxBackoff {
			backoff = reviveMaxBackoff
		}
	}
}

// reviveShard restores one quarantined shard: boot a worker from its
// retained snapshot (no build counted — the restored index is the one
// already built) or stage a rebuild/re-plan over the current sub-corpus,
// then commit the replacement under the state lock if no mutation moved the
// corpus epoch meanwhile, and close it otherwise. The build runs under the
// read lock only, concurrent with queries; the commit is the same drain
// boundary mutations use. Reports whether the shard is settled (healed, or
// found not to need revival).
func (s *Sharded) reviveShard(si int) bool {
	s.stateMu.RLock()
	if si >= len(s.shards) || s.healthOf(si) != Quarantined {
		s.stateMu.RUnlock()
		return true
	}
	epoch := s.epoch
	// The retained snapshot is the shard's persist section — the shipping
	// unit. Revival boots a fresh worker from it the way Load does: dialed
	// under a dialer, decoded in process otherwise, and checked against the
	// shard's item count either way.
	repl := s.shards[si]
	var err error
	if si >= len(s.snaps) || s.snaps[si] == nil || s.bootShard(&repl, si, s.snaps[si]) != nil {
		repl, err = s.stage(si, nil, s.users, s.items)
	}
	s.stateMu.RUnlock()
	if err != nil {
		return false
	}

	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.epoch != epoch {
		// A mutation landed mid-build; the replacement may describe a stale
		// membership. Close it and retry against the new corpus.
		discard(repl)
		return false
	}
	s.commit(si, repl, true)
	return true
}

// captureSnaps retains a snapshot of every live shard's sub-solver (called
// with stateMu held, after Build). No-op unless Config.RetainShardSnapshots.
func (s *Sharded) captureSnaps() {
	if !s.cfg.RetainShardSnapshots {
		s.snaps = nil
		return
	}
	s.snaps = make([][]byte, len(s.shards))
	for i := range s.shards {
		s.captureSnap(i)
	}
}

// captureSnap refreshes shard i's retained snapshot from its current
// sub-solver; a solver that cannot persist simply retains nothing and
// revival falls back to rebuilding.
func (s *Sharded) captureSnap(i int) {
	if !s.cfg.RetainShardSnapshots || i >= len(s.snaps) {
		return
	}
	s.snaps[i] = nil
	if s.shards[i].count == 0 || !s.shards[i].caps.Snapshots {
		return
	}
	// The worker is the source of truth: a dialed worker snapshots its own
	// (possibly remote) state, so the retained bytes always match what the
	// shard actually serves.
	snap, err := s.shards[i].w.Snapshot()
	if err != nil {
		return
	}
	s.snaps[i] = snap
}

// dropSnap invalidates shard i's retained snapshot (the shard's sub-solver
// mutated past it). Revival then takes the rebuild path.
func (s *Sharded) dropSnap(i int) {
	if i < len(s.snaps) {
		s.snaps[i] = nil
	}
}

// guard runs fn under panic containment, converting a panic into a typed
// *PanicError — the mutation-path counterpart of recoverShard (mutations
// run cold, so the closure allocation is irrelevant there).
func guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// recoverShard converts a panicking per-shard dispatch into a typed error in
// the scratch's fault table. It is deferred directly (a plain function, so
// the defer is open-coded and allocation-free on the no-panic path — the
// pinned query allocation budget covers it) by shardQuery/runShard.
func recoverShard(sc *queryScratch, si int) {
	if r := recover(); r != nil {
		sc.perr[si] = &PanicError{Value: r, Stack: debug.Stack()}
	}
}

// settle converts one shard's query-path failure into the composite's
// response under the containment policy: a genuine shard fault (anything
// but a context error on a composite-validated request) quarantines the
// shard; strict mode then fails closed with a *ShardError, partial mode
// absorbs the failure (the shard's nil partial row becomes a Coverage gap).
// Context errors pass through unwrapped — the deadline is the caller's,
// not the shard's, and must satisfy errors.Is(err, ctx.Err()) directly.
func (s *Sharded) settle(si int, plan string, err error, partial bool) error {
	ctxErr := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if !ctxErr && !errors.Is(err, ErrShardQuarantined) {
		s.quarantine(si, err)
	}
	if partial {
		return nil
	}
	if ctxErr {
		return err
	}
	return &ShardError{Shard: si, Plan: plan, Err: err}
}
