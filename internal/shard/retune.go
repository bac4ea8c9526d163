// Drift-driven adaptive re-structuring for the item-sharded composite
// (ISSUE 9): the composite measures its own decay and knows how to re-cut
// itself back to the shape a fresh Build would choose — without ever going
// offline and without perturbing a single answer.
//
// # What drifts
//
// Build freezes four structural decisions against the build-time corpus:
// the by-norm cutoffs (mutate.go's routing floors), the shard count S, the
// per-shard OPTIMUS plans, and the wave schedule's norm-skew input. Churn
// through the mutation log invalidates all four while leaving exactness
// intact — the composite keeps answering correctly, it just scans more.
// DriftStats exposes the evidence the composite already collects: per-shard
// add/remove counters, the arrival-routing histogram against the stale
// cutoffs, shard-size imbalance, and the scan/user rate against a baseline
// locked right after the last (re)structure.
//
// # How a retune commits
//
// The retune path is the quarantine-revival swap (health.go) generalized
// from one shard to the whole shard set. StageRetune runs under the state
// lock's READ side — concurrent with queries — and builds a complete
// replacement: re-cut the partition from the live corpus (cutParts) and
// re-plan every shard (buildAll; under a Planner that re-takes the §IV
// decision per shard, reusing the SharedMeasurement amortization).
// CommitRetune takes the WRITE side — the same drain boundary mutations
// use — checks the staged epoch, and swaps the whole set in. A
// mutation that lands mid-stage moves the epoch and the commit fails with
// adapt.ErrRetuneStale; Retune (and serving.Server.Retune) re-stage
// against the moved corpus. The corpus, the id space, and the ItemMutator
// generation are untouched: a retune changes how items are *arranged*, not
// which items exist, so answers are entry-for-entry identical before and
// after and clients' cached id translations stay valid.
//
// # Shard-count auto-tuning
//
// A RetuneRequest may carry candidate shard counts. Each candidate is
// built in full and timed on a deterministic stride sample of the users
// (core.SampleUserIDs) — the same sample-and-measure move OPTIMUS makes
// across solver strategies, applied to S — and the measured winner is
// staged, with >10% hysteresis in the incumbent's favor so timing noise
// cannot thrash S.
package shard

import (
	"errors"
	"fmt"
	"time"

	"optimus/internal/adapt"
	"optimus/internal/core"
	"optimus/internal/mips"
)

// Retune sampling defaults (adapt.RetuneRequest zero values resolve here).
const (
	// DefaultRetuneSampleFraction is the fraction of users timed per
	// shard-count candidate.
	DefaultRetuneSampleFraction = 0.05
	// DefaultRetuneSampleK is the top-K depth candidates are timed at.
	DefaultRetuneSampleK = 10
	// retuneHysteresis: a challenger shard count must beat the incumbent's
	// measured time by this factor to displace it.
	retuneHysteresis = 0.9
	// retuneMaxAttempts bounds the convenience loop's stage/commit retries
	// against a mutation-heavy corpus.
	retuneMaxAttempts = 4
)

// resetDriftLocked zeroes the churn counters and scan/user marks after a
// (re)structure. Caller holds stateMu's write side.
func (s *Sharded) resetDriftLocked() {
	n := len(s.shards)
	s.driftAdds = make([]int64, n)
	s.driftRemoves = make([]int64, n)
	s.arrivalRoutes = make([]int64, n)
	s.driftMu.Lock()
	s.scanMark = s.totalScans()
	s.userMark = s.usersServed.Load()
	s.scanBaseline = 0
	s.driftMu.Unlock()
}

// totalScans is the monotone composite scan meter: candidates retired with
// replaced sub-solvers plus every live counter. Caller holds stateMu
// (either side).
func (s *Sharded) totalScans() int64 {
	total := s.retiredScans.Load()
	for i := range s.shards {
		if s.shards[i].caps.Scans {
			total += s.shards[i].w.ScanStats().Scanned
		}
	}
	return total
}

// Retunes reports how many adaptive re-structures have committed since
// Build.
// Rearm installs a sub-solver Factory on a composite that has none — the
// snapshot-restore gap: persistence rebuilds every shard's solver from its
// section but cannot restore the factory closure, so a loaded composite can
// serve and mutate (patch path) yet not re-structure. Rearming it re-enables
// StageRetune/Retune and the full-rebuild mutation fallbacks. A nil factory
// is rejected; an existing Factory or Planner is left alone (the restored
// receiver's own config wins — Rearm only fills the gap).
func (s *Sharded) Rearm(f mips.Factory) error {
	if f == nil {
		return fmt.Errorf("shard: Rearm with a nil factory")
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.cfg.Factory != nil || s.cfg.Planner != nil {
		return nil
	}
	s.cfg.Factory = f
	return nil
}

func (s *Sharded) Retunes() int {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	return s.retunes
}

// DriftStats implements adapt.Reporter: a point-in-time measurement of how
// far the live corpus has drifted from the cut the composite last
// structured itself for. The first call after DriftWindowUsers users have
// been served since the last (re)structure locks the scan/user baseline
// the scan-regression trigger compares against.
func (s *Sharded) DriftStats() adapt.DriftStats {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	d := adapt.DriftStats{Generation: s.gen, Retunes: s.retunes}
	if s.shards == nil {
		return d
	}
	d.Items = s.items.Rows()
	d.Partitions = make([]int, len(s.shards))
	live, sum, maxCount := 0, 0, 0
	for i := range s.shards {
		c := s.shards[i].count
		d.Partitions[i] = c
		if c > 0 {
			live++
			sum += c
			if c > maxCount {
				maxCount = c
			}
		}
		if i < len(s.driftAdds) {
			d.Adds += s.driftAdds[i]
		}
		if i < len(s.driftRemoves) {
			d.Removes += s.driftRemoves[i]
		}
	}
	if live >= 2 {
		d.Imbalance = float64(maxCount) * float64(live) / float64(sum)
	}
	var routed, maxRouted int64
	for _, r := range s.arrivalRoutes {
		routed += r
		if r > maxRouted {
			maxRouted = r
		}
	}
	if routed > 0 && len(s.arrivalRoutes) > 1 {
		// Normalized excess of the most-loaded shard's arrival share over
		// the uniform share a still-valid cut would produce: 0 when
		// arrivals spread evenly, 1 when every arrival lands in one shard.
		n := float64(len(s.arrivalRoutes))
		skew := (float64(maxRouted)/float64(routed) - 1/n) / (1 - 1/n)
		if skew > 0 {
			d.ArrivalSkew = skew
		}
	}

	scans, users := s.totalScans(), s.usersServed.Load()
	s.driftMu.Lock()
	if s.scanBaseline == 0 && s.cfg.DriftWindowUsers >= 0 {
		window := int64(s.cfg.DriftWindowUsers)
		if window == 0 {
			window = adapt.DefaultMinWindowUsers
		}
		if users-s.userMark >= window && scans > s.scanMark {
			// Lock the baseline over the first window and restart the
			// marks: everything after this point is the "current" rate the
			// regression trigger compares.
			s.scanBaseline = float64(scans-s.scanMark) / float64(users-s.userMark)
			s.scanMark, s.userMark = scans, users
		}
	}
	d.BaselineScanPerUser = s.scanBaseline
	d.ScannedSinceBaseline = scans - s.scanMark
	d.UsersSinceBaseline = users - s.userMark
	s.driftMu.Unlock()
	if d.ScannedSinceBaseline < 0 {
		d.ScannedSinceBaseline = 0 // an external ResetScanStats dropped live counters
	}
	return d
}

// stagedRetune is the staged replacement shard set — adapt.StagedRetune's
// concrete type.
type stagedRetune struct {
	epoch     uint64
	shards    []shardState
	normFloor []float64
	nShards   int
	committed bool
	result    adapt.RetuneResult
}

// Result implements adapt.StagedRetune.
func (st *stagedRetune) Result() adapt.RetuneResult { return st.result }

// StageRetune builds a complete replacement shard set from the live corpus
// under the state lock's read side — concurrent with queries (mutations
// queue behind the build, exactly as they do behind a shard revival).
// With shard-count candidates in the request it builds and times each one
// and stages the measured winner. The staged set must be passed to
// CommitRetune (directly, or at a serving drain via serving.Server.Retune).
func (s *Sharded) StageRetune(req adapt.RetuneRequest) (adapt.StagedRetune, error) {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.shards == nil {
		return nil, fmt.Errorf("shard: StageRetune before Build")
	}
	if s.cfg.Factory == nil && s.cfg.Planner == nil {
		// A snapshot loaded into a config-less receiver can serve but not
		// re-structure: there is nothing to build replacement shards with.
		return nil, fmt.Errorf("shard: retune needs a Factory or a Planner")
	}
	epoch := s.epoch
	users, items := s.users, s.items
	curS := len(s.shards)

	candidates := candidateShardCounts(req, curS, items.Rows())
	type built struct {
		shards    []shardState
		normFloor []float64
		nShards   int
	}
	var norms []float64
	if s.headFirst {
		norms = items.RowNorms()
	}
	buildCandidate := func(n int) (built, error) {
		parts, err := s.cutParts(items, n)
		if err != nil {
			return built{}, err
		}
		shards, subItems := makeShardStates(items, parts)
		if err := s.buildAll(shards, users, subItems); err != nil {
			return built{}, err
		}
		b := built{shards: shards, nShards: len(parts)}
		if s.headFirst {
			b.normFloor = computeNormFloors(norms, parts)
		}
		return b, nil
	}

	var chosen built
	var samples []adapt.ShardSample
	if len(candidates) == 1 {
		b, err := buildCandidate(candidates[0])
		if err != nil {
			return nil, err
		}
		chosen = b
	} else {
		// Shard-count auto-tuning: build every candidate and time it on a
		// deterministic user sample — the OPTIMUS sample-and-measure move
		// applied to S. The incumbent keeps its seat unless a challenger
		// beats its measured time by >10% (retuneHysteresis). Every
		// candidate but the staged one is closed: the losers after the
		// pick, all built so far when a build or sample fails.
		frac := req.SampleFraction
		if frac <= 0 {
			frac = DefaultRetuneSampleFraction
		}
		k := req.SampleK
		if k <= 0 {
			k = DefaultRetuneSampleK
		}
		if k > items.Rows() {
			k = items.Rows()
		}
		sample := core.SampleUserIDs(users.Rows(), frac, 16)
		samples = make([]adapt.ShardSample, 0, len(candidates))
		builds := make([]built, 0, len(candidates))
		closeBuilds := func(keep int) {
			for i := range builds {
				if i != keep {
					closeWorkers(builds[i].shards)
				}
			}
		}
		bestAt, incumbentAt := -1, -1
		for _, n := range candidates {
			b, err := buildCandidate(n)
			if err != nil {
				closeBuilds(-1)
				return nil, err
			}
			builds = append(builds, b)
			probe := s.measureComposite(b.shards, b.normFloor, b.nShards)
			start := time.Now()
			if _, err := probe.Query(sample, k); err != nil {
				closeBuilds(-1)
				return nil, fmt.Errorf("shard: retune sample at S=%d: %w", b.nShards, err)
			}
			elapsed := time.Since(start)
			samples = append(samples, adapt.ShardSample{Shards: n, Elapsed: elapsed})
			at := len(samples) - 1
			if bestAt < 0 || elapsed < samples[bestAt].Elapsed {
				bestAt = at
			}
			if n == curS {
				incumbentAt = at
			}
		}
		winner := bestAt
		if incumbentAt >= 0 && winner != incumbentAt &&
			float64(samples[winner].Elapsed) > retuneHysteresis*float64(samples[incumbentAt].Elapsed) {
			winner = incumbentAt
		}
		samples[winner].Chosen = true
		chosen = builds[winner]
		closeBuilds(winner)
	}

	st := &stagedRetune{
		epoch:     epoch,
		shards:    chosen.shards,
		normFloor: chosen.normFloor,
		nShards:   chosen.nShards,
		result: adapt.RetuneResult{
			Trigger:   req.Trigger,
			OldShards: curS,
			NewShards: chosen.nShards,
			Samples:   samples,
		},
	}
	return st, nil
}

// candidateShardCounts resolves the request's shard-count sweep: a forced
// count wins outright; otherwise the deduped candidates clamped to
// [1, items], with the current count always included as the reference; an
// empty request keeps the current count (pure re-cut).
func candidateShardCounts(req adapt.RetuneRequest, curS, items int) []int {
	if req.Shards > 0 {
		n := req.Shards
		if n > items {
			n = items
		}
		return []int{n}
	}
	if len(req.ShardCandidates) == 0 {
		return []int{curS}
	}
	seen := map[int]bool{}
	out := make([]int, 0, len(req.ShardCandidates)+1)
	add := func(n int) {
		if n < 1 {
			return
		}
		if n > items {
			n = items
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	add(curS)
	for _, n := range req.ShardCandidates {
		add(n)
	}
	return out
}

// measureComposite wraps a candidate shard set in a throwaway composite so
// the S sweep times the real query path (schedule resolution, fan-out,
// merge) rather than a proxy. The scratch composite shares the immutable
// corpus matrices and is discarded after the measurement.
func (s *Sharded) measureComposite(shards []shardState, normFloor []float64, nShards int) *Sharded {
	tmp := &Sharded{
		cfg:       s.cfg,
		name:      s.name,
		users:     s.users,
		items:     s.items,
		shards:    shards,
		headFirst: s.headFirst,
		normFloor: normFloor,
		userNorms: s.userNorms,
	}
	tmp.cfg.Shards = nShards
	tmp.resetHealth(len(shards))
	tmp.refreshComposite()
	return tmp
}

// CommitRetune swaps a staged replacement shard set in under the state
// lock's write side — the same drain boundary mutations and revivals use.
// It fails with adapt.ErrRetuneStale when a mutation moved the corpus
// since the stage (the staged set describes memberships that no longer
// exist), closing the staged set's workers; the caller re-stages. The
// corpus and the mutation generation are untouched: answers are
// entry-for-entry identical across the swap and cached positional ids stay
// valid, so serving's Stats.Generation deliberately does not tick.
func (s *Sharded) CommitRetune(staged adapt.StagedRetune) error {
	st, ok := staged.(*stagedRetune)
	if !ok || st == nil {
		return fmt.Errorf("shard: CommitRetune of a foreign staged retune %T", staged)
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if st.committed {
		return fmt.Errorf("shard: staged retune already committed")
	}
	if s.epoch != st.epoch {
		closeWorkers(st.shards)
		st.shards = nil
		return adapt.ErrRetuneStale
	}
	for i := range s.shards {
		if s.shards[i].count > 0 {
			s.retireWorker(s.shards[i].w)
		}
	}
	s.epoch++
	s.shards = st.shards
	s.normFloor = st.normFloor
	s.cfg.Shards = st.nShards
	s.name = s.composeName(st.nShards)
	s.resetHealth(len(st.shards))
	s.captureSnaps()
	s.retunes++
	s.resetDriftLocked()
	s.refreshComposite()
	st.committed = true
	return nil
}

// Retune implements adapt.Driver's re-structure half: a stage/commit loop
// that retries when mutations land mid-stage. Standalone use only — a
// composite behind a serving.Server must retune through Server.Retune so
// the commit lands at the server's drain boundary.
func (s *Sharded) Retune(req adapt.RetuneRequest) (adapt.RetuneResult, error) {
	var lastErr error
	for attempt := 1; attempt <= retuneMaxAttempts; attempt++ {
		staged, err := s.StageRetune(req)
		if err != nil {
			return adapt.RetuneResult{}, err
		}
		err = s.CommitRetune(staged)
		if err == nil {
			res := staged.Result()
			res.Attempts = attempt
			return res, nil
		}
		if !errors.Is(err, adapt.ErrRetuneStale) {
			return adapt.RetuneResult{}, err
		}
		lastErr = err
	}
	return adapt.RetuneResult{}, fmt.Errorf(
		"shard: retune lost the stage/commit race %d times: %w", retuneMaxAttempts, lastErr)
}

// composeName regenerates the composite's report name for a new shard
// count, mirroring New's naming.
func (s *Sharded) composeName(nShards int) string {
	switch {
	case s.cfg.Planner != nil:
		return fmt.Sprintf("Sharded(%s,S=%d)", s.cfg.Planner.Name(), nShards)
	case s.cfg.Factory != nil:
		if probe := s.cfg.Factory(); probe != nil {
			return fmt.Sprintf("Sharded(%s,S=%d)", probe.Name(), nShards)
		}
	}
	return s.name
}

// The composite measures and re-structures itself.
var _ adapt.Driver = (*Sharded)(nil)
