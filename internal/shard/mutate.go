// Mutable-corpus support for the item-sharded executor: the dirty-shard
// discipline. A mutation is routed to the shard(s) that own the affected
// norm range (ByNorm) or the catalog tail (order-based partitions); only
// those shards are touched — patched in place when their sub-solver
// implements mips.ItemMutator, rebuilt (and, under a Planner, *re-planned*:
// the index-vs-scan decision is retaken for the shard's new data
// distribution, reusing the planner's amortized shared measurement) when it
// does not. Clean shards keep their built indexes untouched: removals
// renumber their id maps arithmetically — the compaction shift is monotone,
// so per-shard id maps stay ascending and shard-local tie-breaks keep
// agreeing with global ones — and their sub-matrices continue aliasing the
// pre-mutation corpus rows, which mutation never modifies (every corpus
// update allocates fresh backing; see mat.AppendRows/RemoveRows).
//
// Routing invariant. Under ByNorm, Build records each shard's minimum
// member norm as a fixed cutoff; an arrival goes to the first shard whose
// cutoff its norm meets (the tail shard if none). Adds therefore never sink
// below their shard's floor and removals only raise a shard's true minimum,
// so the head-to-tail invariant HeadFirst promises — every norm in shard s
// >= every norm in shard s+1 — survives arbitrary churn, and the two-wave
// floor-seeded query keeps its certificate. An item whose norm falls in an
// interior shard's range migrates into *that* shard (not the corpus tail),
// dirtying exactly one partition.
//
// One swap path. Every path that replaces a shard's worker — a mutation's
// rebuild or emptied shard, a failed patch's repair, AddUsers's heal, stage
// and rollback, and revival (health.go) — goes through the same three
// steps: stage builds the replacement beside the live shard, commit swaps
// it in (closing the worker it replaces, healing the shard, counting the
// swap and re-taking its retained snapshot), and discard closes a staged
// replacement that is dropped. The rule: a staged replacement is either
// committed or closed.
package shard

import (
	"fmt"

	"optimus/internal/mat"
	"optimus/internal/mips"
)

// MutationStats accounts for the dirty-shard discipline: how many shards a
// mutation actually touched, and how (incremental patch vs full
// rebuild/re-plan). The benchmark's serve-churn workload reports them as
// shard.dirty_per_flush and shard.patched_frac.
type MutationStats struct {
	// Mutations counts successful AddItems/RemoveItems calls.
	Mutations int
	// Patches counts sub-solvers mutated in place (mips.ItemMutator).
	Patches int
	// Rebuilds counts sub-solvers rebuilt or re-planned by a commit outside
	// revival: item mutations (a dead shard's revival by an arrival
	// included), patch repairs, and AddUsers' heals, rebuilds and
	// rollbacks. The background reviver counts in Health's Revivals.
	Rebuilds int
	// Emptied counts shards whose entire membership was removed (the
	// sub-solver is discarded; the shard sits dead until revived).
	Emptied int
}

// Dirty returns the cumulative dirty-shard count: every shard a mutation
// touched (patched + rebuilt + emptied).
func (m MutationStats) Dirty() int { return m.Patches + m.Rebuilds + m.Emptied }

// MutationStats returns the cumulative mutation accounting (zero after
// Build).
func (s *Sharded) MutationStats() MutationStats { return s.mstats }

// Generation implements mips.ItemMutator.
func (s *Sharded) Generation() uint64 { return s.gen }

// shardEdit is one shard's part of an item mutation: AddItems and
// RemoveItems work it out, applyEdits stages and commits it.
type shardEdit struct {
	si  int
	ids []int // the shard's post-mutation id map
	// patch applies the mutation to the shard's live worker in place; nil
	// marks a clean shard, whose id map is only renumbered.
	patch func(w Worker) error
	// repl, when staged, is committed in place of the shard: a rebuild over
	// ids, or the dead state of a shard that lost its whole membership.
	repl   shardState
	staged bool
}

// AddItems implements mips.ItemMutator: append to the global corpus, route
// each arrival to its owning shard, and touch only the dirty shards (see
// the package comment on the discipline). Assigned ids are [n, n+m).
func (s *Sharded) AddItems(newItems *mat.Matrix) ([]int, error) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.shards == nil {
		return nil, fmt.Errorf("shard: AddItems before Build")
	}
	if err := mips.ValidateAddItems(newItems, s.items.Cols()); err != nil {
		return nil, err
	}
	base := s.items.Rows()
	m := newItems.Rows()

	// Route: by norm cutoff under a head-first partition, to the last shard
	// under order-based partitions (appended ids extend the corpus tail).
	perShard := make([][]int, len(s.shards)) // arrival rows per shard
	if s.normFloor != nil {
		norms := newItems.RowNorms()
		for r := 0; r < m; r++ {
			si := len(s.shards) - 1
			for i, floor := range s.normFloor {
				if norms[r] >= floor {
					si = i
					break
				}
			}
			perShard[si] = append(perShard[si], r)
		}
	} else {
		perShard[len(s.shards)-1] = mips.IDRange(0, m)
	}

	s.materializeIDs()
	var edits []shardEdit
	for si, rows := range perShard {
		if len(rows) == 0 {
			continue
		}
		sh := &s.shards[si]
		// Arrival rows are in ascending r, so the new global ids append to
		// the shard's id map in ascending order — the tie-break invariant.
		ids := make([]int, 0, len(sh.ids)+len(rows))
		ids = append(ids, sh.ids...)
		for _, r := range rows {
			ids = append(ids, base+r)
		}
		count := sh.count
		edits = append(edits, shardEdit{si: si, ids: ids, patch: func(w Worker) error {
			got, err := w.AddItems(newItems.SelectRows(rows))
			if err == nil && (len(got) != len(rows) || got[0] != count) {
				err = fmt.Errorf("sub-solver assigned ids %v, want [%d,%d)",
					got, count, count+len(rows))
			}
			return err
		}})
	}
	if err := s.applyEdits(mat.AppendRows(s.items, newItems), edits); err != nil {
		return nil, err
	}
	return mips.IDRange(base, m), nil
}

// RemoveItems implements mips.ItemMutator: compact the global corpus and
// touch only the shards that owned removed items. Clean shards' id maps are
// renumbered arithmetically; their indexes are not rebuilt.
func (s *Sharded) RemoveItems(ids []int) error {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.shards == nil {
		return fmt.Errorf("shard: RemoveItems before Build")
	}
	sorted, err := mips.ValidateRemoveIDs(ids, s.items.Rows())
	if err != nil {
		return err
	}
	s.materializeIDs()
	var edits []shardEdit
	for si := range s.shards {
		sh := &s.shards[si]
		if sh.count == 0 {
			continue
		}
		// Walk the shard's ascending id map against the ascending removal
		// list: collect local removal positions, renumber survivors.
		var local []int
		newIDs := make([]int, 0, len(sh.ids))
		next := 0
		for pos, id := range sh.ids {
			for next < len(sorted) && sorted[next] < id {
				next++
			}
			if next < len(sorted) && sorted[next] == id {
				local = append(local, pos)
				continue
			}
			newIDs = append(newIDs, id-next) // next == |removed ids < id|
		}
		e := shardEdit{si: si, ids: newIDs}
		if len(local) > 0 {
			e.patch = func(w Worker) error { return w.RemoveItems(local) }
		}
		edits = append(edits, e)
	}
	return s.applyEdits(mat.RemoveRows(s.items, sorted), edits)
}

// applyEdits is the stage → commit body AddItems and RemoveItems share,
// run under the write lock over the post-mutation corpus items. Stage: all
// fallible work (sub-solver builds, planner re-plans) runs beside the live
// shards, so a failed build returns with the composite untouched and every
// replacement staged before it closed. Commit: staged replacements swap in,
// dirty shards left live are patched in place, clean ones renumbered.
func (s *Sharded) applyEdits(items *mat.Matrix, edits []shardEdit) error {
	for i := range edits {
		e := &edits[i]
		sh := &s.shards[e.si]
		switch {
		case e.patch == nil:
			continue
		case len(e.ids) == 0:
			// The shard lost its whole membership: it goes dead (skipped by
			// the query fan-out) until an arrival revives it.
			e.repl = *sh
			e.repl.w, e.repl.caps, e.repl.ids, e.repl.count = nil, WorkerCaps{}, nil, 0
		case sh.caps.Mutable && sh.count > 0 && s.cfg.Planner == nil && s.healthOf(e.si) == Healthy:
			continue // patched at commit
		default:
			// A quarantined shard's worker cannot be trusted with an in-place
			// patch, so the rebuild both applies the mutation and heals it. A
			// planner re-plan retakes the §IV decision for the shard's new
			// distribution, reusing the shared measurement's user sample and
			// baseline rate; an emptied-then-revived shard also lands here.
			repl, err := s.stage(e.si, e.ids, s.users, items)
			if err != nil {
				for _, d := range edits[:i] {
					discard(d.repl)
				}
				return err
			}
			e.repl = repl
		}
		e.staged = true
	}

	for _, e := range edits {
		sh := &s.shards[e.si]
		switch {
		case e.staged:
			s.commit(e.si, e.repl, false)
		case e.patch == nil:
			sh.ids = e.ids // clean renumber; the sub-solver (and any
			// retained snapshot of it) is untouched
		default:
			if err := guard(func() error { return e.patch(sh.w) }); err != nil {
				// The patch ran on composite-validated inputs, so a failure
				// (or panic, contained by guard) means the sub-solver is in
				// an unknown state: repair it on the spot so the commit
				// stays atomic. A shard the repair leaves quarantined is
				// revived against the corpus committed below.
				s.repairShard(e.si, e.ids, items, err)
				continue
			}
			sh.ids, sh.count = e.ids, len(e.ids)
			s.mstats.Patches++
			s.dropSnap(e.si) // the retained snapshot predates the patch
		}
	}
	s.items = items
	s.gen++
	s.epoch++
	s.mstats.Mutations++
	return nil
}

// repairShard restores a shard whose in-place patch failed mid-commit by
// rebuilding it over its intended post-mutation membership, drawn from the
// post-mutation corpus. If even the rebuild fails, the shard is quarantined
// with cause, its membership still advanced so the background reviver
// rebuilds it against the right corpus rows. Either way the composite-level
// mutation commits.
func (s *Sharded) repairShard(si int, ids []int, items *mat.Matrix, cause error) {
	repl, err := s.stage(si, ids, s.users, items)
	if err != nil {
		sh := &s.shards[si]
		sh.ids, sh.count = ids, len(ids)
		s.dropSnap(si)
		s.quarantine(si, cause)
		return
	}
	s.commit(si, repl, false)
}

// stage builds a replacement for shard si: the shard's state with its
// membership set to ids (nil keeps the current one), and a sub-solver built
// — or planned — over users and those rows of the corpus items. Nothing is
// installed. The one rule for every path that swaps a shard (mutation,
// repair, rollback, revival) is that a staged replacement is either
// committed or closed by discard. A failed stage returns the zero state.
func (s *Sharded) stage(si int, ids []int, users, items *mat.Matrix) (shardState, error) {
	repl := s.shards[si]
	if ids != nil {
		repl.ids, repl.count = ids, len(ids)
	}
	// A membership that is one consecutive run aliases the corpus rows.
	base, run := repl.base, repl.ids == nil
	if !run {
		base, run = contiguousRange(repl.ids)
	}
	var sub *mat.Matrix
	if run {
		sub = items.RowSlice(base, base+repl.count)
	} else {
		sub = items.SelectRows(repl.ids)
	}
	if err := s.buildShard(&repl, si, users, sub); err != nil {
		return shardState{}, err
	}
	return repl, nil
}

// commit installs repl, a replacement staged for shard si, under the write
// lock: it closes the worker repl replaces, heals the shard, counts the swap
// (a revival in the shard's Revivals, otherwise a rebuild or an emptied
// shard in MutationStats), re-takes the retained snapshot from the new
// worker (none for a dead shard), and re-derives the cached composite
// capabilities, which a re-plan may have changed.
func (s *Sharded) commit(si int, repl shardState, revived bool) {
	discard(s.shards[si])
	s.shards[si] = repl
	s.healOne(si, revived)
	switch {
	case revived:
	case repl.count == 0:
		s.mstats.Emptied++
	default:
		s.mstats.Rebuilds++
	}
	s.captureSnap(si)
	s.refreshComposite()
}

// AddUsers implements mips.UserAdder by broadcasting the arrivals to every
// live shard's sub-solver (each maintains its own per-shard user state —
// MAXIMUS its θb bookkeeping, the others their query matrices) and growing
// the composite's user matrix. A live shard whose sub-solver is not a
// mips.UserAdder (a baseline) is rebuilt over the grown user matrix
// instead, as item mutations already do, so user arrival does not depend
// on the sub-solver's tier.
//
// Error atomicity. The rebuilds are staged before the broadcast and
// committed only after it succeeds, so a failed rebuild returns with the
// composite untouched and the rebuilds staged before it closed. The
// broadcast itself cannot be staged on copies (sub-solvers absorb users in
// place), so a mid-broadcast failure — a sub-solver error or an id-contract
// violation at shard k — closes the staged rebuilds and is rolled back by
// rebuilding the adders among shards 0..k over the composite's unchanged
// user matrix and their current sub-corpora: the composite then answers
// queries identically to its pre-call state (the exactness contract makes
// a rebuilt sub-solver interchangeable; under a Planner the dirty shards
// are re-planned, and their Plans()/Builds counters and MutationStats'
// Rebuilds advance — the observable trace of the recovery). Shard k itself
// is included because a contract-violating sub-solver has already mutated.
// Only if the rollback rebuild *also* fails is the composite corrupt; the
// returned error then says so explicitly and the instance must be
// discarded. With the repository's solvers the inputs are fully validated
// before the first broadcast call, so the whole path is reachable only
// through a custom sub-solver bug.
func (s *Sharded) AddUsers(newUsers *mat.Matrix) ([]int, error) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.shards == nil {
		return nil, fmt.Errorf("shard: AddUsers before Build")
	}
	if err := mips.ValidateAddUsers(newUsers, s.users.Cols()); err != nil {
		return nil, err
	}
	// A quarantined shard's sub-solver cannot be trusted to absorb the
	// broadcast; heal it first by rebuilding over the pre-mutation state
	// (failure leaves the composite untouched), so the broadcast below only
	// ever talks to healthy sub-solvers.
	for si := range s.shards {
		if s.shards[si].count == 0 || s.healthOf(si) == Healthy {
			continue
		}
		repl, err := s.stage(si, nil, s.users, s.items)
		if err != nil {
			return nil, err
		}
		s.commit(si, repl, false)
	}
	// Stage: a shard that cannot absorb users is rebuilt over the grown
	// user matrix beside the live one, into repl[si] (the zero state for
	// the others).
	grown := mat.AppendRows(s.users, newUsers)
	repl := make([]shardState, len(s.shards))
	for si := range s.shards {
		if s.shards[si].count == 0 || s.shards[si].caps.UserAdds {
			continue
		}
		st, err := s.stage(si, nil, grown, s.items)
		if err != nil {
			discard(repl...)
			return nil, err
		}
		repl[si] = st
	}
	base := s.users.Rows()
	for si := range s.shards {
		sh := &s.shards[si]
		if sh.count == 0 || !sh.caps.UserAdds {
			continue
		}
		var ids []int
		err := guard(func() error {
			var e error
			ids, e = sh.w.AddUsers(newUsers)
			return e
		})
		if err == nil && (len(ids) != newUsers.Rows() || ids[0] != base) {
			err = fmt.Errorf("sub-solver assigned user ids %v, want [%d,%d)",
				ids, base, base+newUsers.Rows())
		}
		if err != nil {
			err = &ShardError{Shard: si, Plan: sh.plan, Err: err}
			discard(repl...)
			if rbErr := s.rollbackUserBroadcast(si); rbErr != nil {
				return nil, fmt.Errorf("%v; rollback failed, composite corrupt: %w", err, rbErr)
			}
			return nil, err
		}
	}
	// Every sub-solver embeds its user matrix, so every retained snapshot
	// predates the broadcast; drop them all (revival falls back to rebuild)
	// before the commits retain the rebuilt shards' fresh ones.
	for i := range s.snaps {
		s.snaps[i] = nil
	}
	for si := range repl {
		if repl[si].w != nil {
			s.commit(si, repl[si], false)
		}
	}
	s.users = grown
	s.userNorms = append(s.userNorms, newUsers.RowNorms()...)
	s.epoch++
	return mips.IDRange(base, newUsers.Rows()), nil
}

// rollbackUserBroadcast undoes a partial AddUsers broadcast by rebuilding
// the user adders among shards [0, upto] from the composite's (unchanged)
// user matrix and their current sub-corpora; the other shards never saw the
// broadcast. Rebuilt shards answer identically to their pre-call state; a
// Planner re-plans them.
func (s *Sharded) rollbackUserBroadcast(upto int) error {
	for si := 0; si <= upto; si++ {
		if s.shards[si].count == 0 || !s.shards[si].caps.UserAdds {
			continue
		}
		repl, err := s.stage(si, nil, s.users, s.items)
		if err != nil {
			return err
		}
		s.commit(si, repl, false)
	}
	return nil
}

// materializeIDs expands contiguous-range shard representations into
// explicit id maps, the form every mutation path renumbers. (The zero-copy
// contiguity of an untouched shard's *sub-matrix* is unaffected — that
// aliasing was fixed at its last build.)
func (s *Sharded) materializeIDs() {
	for i := range s.shards {
		sh := &s.shards[i]
		if sh.ids == nil && sh.count > 0 {
			sh.ids = identityRange(sh.base, sh.base+sh.count)
			sh.base = 0
		}
	}
}

// The composite is itself a mutable corpus (and a user adder), so mutation
// composes across layers exactly like floor seeding does.
var (
	_ mips.ItemMutator = (*Sharded)(nil)
	_ mips.UserAdder   = (*Sharded)(nil)
)
