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
	// Rebuilds counts sub-solvers rebuilt or re-planned (a dead shard's
	// revival included).
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

// stagedShard is one dirty shard's prepared mutation, held aside until every
// fallible step has succeeded — the stage/commit split that keeps composite
// mutations atomic: validation failures and rebuild/re-plan failures return
// with the composite untouched. The one remaining hazard is a patch-path
// sub-solver failure at commit time; inputs were already validated, so that
// can only mean a solver bug, and it is fatal to the instance.
type stagedShard struct {
	si     int
	newIDs []int      // the shard's post-mutation id map
	st     shardState // rebuild path: the fully built replacement state
	// patchRows (AddItems) / patchLocal (RemoveItems): non-nil selects the
	// patch-at-commit path instead of committing st.
	patchRows  []int
	patchLocal []int
	rebuild    bool
	dead       bool
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
	items := mat.AppendRows(s.items, newItems)

	// Stage: all fallible work (sub-solver builds, planner re-plans) runs on
	// shard-state copies; the composite commits only if every stage lands.
	var stages []stagedShard
	for si, rows := range perShard {
		if len(rows) == 0 {
			continue
		}
		sh := &s.shards[si]
		// Arrival rows are in ascending r, so the new global ids append to
		// the shard's id map in ascending order — the tie-break invariant.
		newIDs := make([]int, 0, len(sh.ids)+len(rows))
		newIDs = append(newIDs, sh.ids...)
		for _, r := range rows {
			newIDs = append(newIDs, base+r)
		}
		// A quarantined shard's worker cannot be trusted with an in-place
		// patch; the rebuild path below both applies the mutation and heals
		// the shard.
		if sh.caps.Mutable && sh.count > 0 &&
			s.cfg.Planner == nil && s.healthOf(si) == Healthy {
			stages = append(stages, stagedShard{si: si, newIDs: newIDs, patchRows: rows})
			continue
		}
		// Rebuild (or re-plan) the dirty shard over its new membership. A
		// planner re-plan retakes the §IV decision for the shard's new
		// distribution, reusing the shared measurement's user sample and
		// baseline rate; an emptied-then-revived shard also lands here.
		tmp := *sh
		tmp.ids, tmp.count = newIDs, len(newIDs)
		if err := s.buildShard(&tmp, si, s.users, subMatrix(items, newIDs)); err != nil {
			return nil, err
		}
		stages = append(stages, stagedShard{si: si, st: tmp, rebuild: true})
	}

	// Commit.
	for _, g := range stages {
		sh := &s.shards[g.si]
		if g.rebuild {
			retireWorker(sh.w)
			*sh = g.st
			s.healOne(g.si, false)
			s.mstats.Rebuilds++
			s.captureSnap(g.si)
			continue
		}
		var ids []int
		err := guard(func() error {
			var e error
			ids, e = sh.w.AddItems(newItems.SelectRows(g.patchRows))
			return e
		})
		if err == nil && (len(ids) != len(g.patchRows) || ids[0] != sh.count) {
			err = fmt.Errorf("sub-solver assigned ids %v, want [%d,%d)",
				ids, sh.count, sh.count+len(g.patchRows))
		}
		if err != nil {
			// The patch ran on composite-validated inputs, so a failure (or
			// panic, contained by guard) means the sub-solver is in an
			// unknown state. Repair it on the spot — rebuild over the
			// intended post-mutation membership — so the commit stays
			// atomic; if even the rebuild fails, quarantine the shard with
			// its membership advanced and let the background reviver retry:
			// the corpus commit below is what makes that revival correct.
			if s.repairShard(g.si, g.newIDs, items, err) == nil {
				s.mstats.Rebuilds++
			}
			continue
		}
		sh.ids, sh.count = g.newIDs, len(g.newIDs)
		s.mstats.Patches++
		s.dropSnap(g.si) // the retained snapshot predates the patch
	}
	s.items = items
	s.gen++
	s.epoch++
	s.mstats.Mutations++
	s.refreshComposite()
	return mips.IDRange(base, m), nil
}

// repairShard restores a shard whose in-place patch failed mid-commit:
// rebuild it over its intended post-mutation membership (drawn from the
// post-mutation corpus). On success the shard is healthy and the mutation
// is applied; on failure the shard is quarantined with cause, its
// membership still advanced so the background reviver rebuilds it against
// the right corpus rows. Either way the composite-level mutation commits.
func (s *Sharded) repairShard(si int, newIDs []int, items *mat.Matrix, cause error) error {
	sh := &s.shards[si]
	tmp := *sh
	tmp.ids, tmp.count = newIDs, len(newIDs)
	if err := s.buildShard(&tmp, si, s.users, subMatrix(items, newIDs)); err != nil {
		sh.ids, sh.count = newIDs, len(newIDs)
		s.dropSnap(si)
		s.quarantine(si, cause)
		return err
	}
	retireWorker(sh.w)
	*sh = tmp
	s.healOne(si, false)
	s.captureSnap(si)
	return nil
}

// RemoveItems implements mips.ItemMutator: compact the global corpus and
// touch only the shards that owned removed items. Clean shards' id maps are
// renumbered arithmetically; their indexes are not rebuilt. Like AddItems,
// all fallible work is staged and committed only once it has all succeeded.
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
	items := mat.RemoveRows(s.items, sorted)

	// Stage: compute every shard's post-removal id map and build the
	// replacements for shards taking the rebuild path.
	var stages []stagedShard
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
		g := stagedShard{si: si, newIDs: newIDs, patchLocal: local}
		switch {
		case len(local) == 0:
			// Clean shard: arithmetic renumber only, index untouched.
		case len(newIDs) == 0:
			// The shard lost its whole membership: it goes dead (skipped by
			// the query fan-out) until an arrival revives it.
			g.dead = true
		default:
			// Quarantined shards take the rebuild path like unpatchable
			// ones: it applies the removal and heals in one step.
			if !sh.caps.Mutable ||
				s.cfg.Planner != nil || s.healthOf(si) != Healthy {
				tmp := *sh
				tmp.ids, tmp.count = newIDs, len(newIDs)
				if err := s.buildShard(&tmp, si, s.users, subMatrix(items, newIDs)); err != nil {
					return err
				}
				g.st, g.rebuild, g.patchLocal = tmp, true, nil
			}
		}
		stages = append(stages, g)
	}

	// Commit.
	for _, g := range stages {
		sh := &s.shards[g.si]
		switch {
		case g.dead:
			retireWorker(sh.w)
			sh.w, sh.caps, sh.ids, sh.count = nil, WorkerCaps{}, nil, 0
			s.healOne(g.si, false) // nothing left to revive
			s.dropSnap(g.si)
			s.mstats.Emptied++
		case g.rebuild:
			retireWorker(sh.w)
			*sh = g.st
			s.healOne(g.si, false)
			s.mstats.Rebuilds++
			s.captureSnap(g.si)
		case len(g.patchLocal) > 0:
			err := guard(func() error {
				return sh.w.RemoveItems(g.patchLocal)
			})
			if err != nil {
				// Same repair-or-quarantine policy as AddItems: the commit
				// finishes either way (see repairShard).
				if s.repairShard(g.si, g.newIDs, items, err) == nil {
					s.mstats.Rebuilds++
				}
				continue
			}
			sh.ids, sh.count = g.newIDs, len(g.newIDs)
			s.mstats.Patches++
			s.dropSnap(g.si)
		default:
			sh.ids = g.newIDs // clean renumber; the sub-solver (and any
			// retained snapshot of it) is untouched
		}
	}
	s.items = items
	s.gen++
	s.epoch++
	s.mstats.Mutations++
	s.refreshComposite()
	return nil
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
// composite untouched. The broadcast itself cannot be staged on copies
// (sub-solvers absorb users in place), so a mid-broadcast failure — a
// sub-solver error or an id-contract violation at shard k — discards the
// staged rebuilds and is rolled back by rebuilding the adders among shards
// 0..k over the composite's unchanged user matrix and their current
// sub-corpora: the composite then answers queries identically to its
// pre-call state (the exactness contract makes a rebuilt sub-solver
// interchangeable; under a Planner the dirty shards are re-planned, and
// their Plans()/Builds counters advance — the observable trace of the
// recovery). Shard k itself is included because a contract-violating
// sub-solver has already mutated. Only if the rollback rebuild *also* fails
// is the composite corrupt; the returned error then says so explicitly and
// the instance must be discarded. With the repository's solvers the inputs
// are fully validated before the first broadcast call, so the whole path is
// reachable only through a custom sub-solver bug.
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
	healed := false
	for si := range s.shards {
		sh := &s.shards[si]
		if sh.count == 0 || s.healthOf(si) == Healthy {
			continue
		}
		tmp := *sh
		if err := s.buildShard(&tmp, si, s.users, s.shardItems(sh)); err != nil {
			return nil, err
		}
		retireWorker(sh.w)
		*sh = tmp
		s.healOne(si, false)
		s.mstats.Rebuilds++
		healed = true
	}
	if healed {
		s.refreshComposite() // a re-plan may have changed capabilities
	}
	// Stage: a shard that cannot absorb users is rebuilt over the grown
	// user matrix beside the live one.
	grown := mat.AppendRows(s.users, newUsers)
	var stages []stagedShard
	discard := func() {
		for _, g := range stages {
			retireWorker(g.st.w)
		}
	}
	for si := range s.shards {
		sh := &s.shards[si]
		if sh.count == 0 || sh.caps.UserAdds {
			continue
		}
		tmp := *sh
		if err := s.buildShard(&tmp, si, grown, s.shardItems(sh)); err != nil {
			discard()
			return nil, err
		}
		stages = append(stages, stagedShard{si: si, st: tmp})
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
			discard()
			if rbErr := s.rollbackUserBroadcast(si); rbErr != nil {
				return nil, fmt.Errorf("%v; rollback failed, composite corrupt: %w", err, rbErr)
			}
			return nil, err
		}
	}
	for _, g := range stages {
		retireWorker(s.shards[g.si].w)
		s.shards[g.si] = g.st
		s.mstats.Rebuilds++
	}
	if len(stages) > 0 {
		s.refreshComposite() // a re-plan may have changed capabilities
	}
	s.users = grown
	s.userNorms = append(s.userNorms, newUsers.RowNorms()...)
	s.epoch++
	// Every sub-solver embeds its user matrix, so every retained snapshot
	// predates the broadcast; drop them all (revival falls back to rebuild),
	// then retain the rebuilt shards' fresh ones.
	for i := range s.snaps {
		s.snaps[i] = nil
	}
	for _, g := range stages {
		s.captureSnap(g.si)
	}
	return mips.IDRange(base, newUsers.Rows()), nil
}

// rollbackUserBroadcast undoes a partial AddUsers broadcast by rebuilding
// the user adders among shards [0, upto] from the composite's (unchanged)
// user matrix and their current sub-corpora; the other shards never saw the
// broadcast. Rebuilt shards answer identically to their pre-call state;
// their Plans()/Builds counters advance, and a Planner re-plans them.
func (s *Sharded) rollbackUserBroadcast(upto int) error {
	for si := 0; si <= upto; si++ {
		sh := &s.shards[si]
		if sh.count == 0 || !sh.caps.UserAdds {
			continue
		}
		old := sh.w
		if err := s.buildShard(sh, si, s.users, s.shardItems(sh)); err != nil {
			return err
		}
		retireWorker(old)
	}
	// A Planner rollback may have changed sub-solver types, so the cached
	// composite capabilities (Batches, two-wave) are re-derived.
	s.refreshComposite()
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

// shardItems returns a shard's current member rows from the corpus, in
// either id representation.
func (s *Sharded) shardItems(sh *shardState) *mat.Matrix {
	if sh.ids == nil {
		return s.items.RowSlice(sh.base, sh.base+sh.count)
	}
	return subMatrix(s.items, sh.ids)
}

// subMatrix selects a shard's member rows from the corpus, aliasing instead
// of copying when the membership is one consecutive run.
func subMatrix(items *mat.Matrix, ids []int) *mat.Matrix {
	if base, ok := contiguousRange(ids); ok {
		return items.RowSlice(base, base+len(ids))
	}
	return items.SelectRows(ids)
}

// The composite is itself a mutable corpus (and a user adder), so mutation
// composes across layers exactly like floor seeding does.
var (
	_ mips.ItemMutator = (*Sharded)(nil)
	_ mips.UserAdder   = (*Sharded)(nil)
)
