// Query options, cancellation and graceful-degradation contracts: the
// QueryOptions every Solver.QueryCtx call carries, and the
// PartialQuerier/Coverage degraded-answer contract the sharded executor
// offers the serving layer.
package mips

import (
	"context"
	"fmt"
	"math"

	"optimus/internal/mat"
	"optimus/internal/topk"
)

// QueryOptions carries the optional floor source of a QueryCtx call. At most
// one of Floors and Board may be set; both nil is a plain query.
type QueryOptions struct {
	// Floors, when non-nil, seeds the query with static per-user floors
	// (positionally aligned with userIDs; see Solver.QueryCtx).
	Floors []float64
	// Board, when non-nil, is a live floor source (cell i belongs to
	// userIDs[i]). Solvers without live polling may snapshot it (a valid
	// static floor: cells only ever rise).
	Board *topk.FloorBoard
}

// ValidateQueryOptions checks the QueryCtx argument shapes shared by all
// implementations: at most one floor source, aligned with userIDs. NaN
// floors are rejected: every comparison against NaN is false, which would
// silently disable pruning on some paths and reject everything on others. A
// board needs only the alignment check (FloorBoard rejects NaN at Raise).
func ValidateQueryOptions(userIDs []int, opts QueryOptions) error {
	switch {
	case opts.Floors != nil && opts.Board != nil:
		return fmt.Errorf("mips: QueryOptions carries both floors and a board (want at most one floor source)")
	case opts.Board != nil:
		if opts.Board.Len() != len(userIDs) {
			return fmt.Errorf("mips: floor board has %d cells for %d users", opts.Board.Len(), len(userIDs))
		}
	case opts.Floors != nil:
		if len(opts.Floors) != len(userIDs) {
			return fmt.Errorf("mips: %d floors for %d users", len(opts.Floors), len(userIDs))
		}
		for i, f := range opts.Floors {
			if f != f {
				return fmt.Errorf("mips: floor %d is NaN", i)
			}
		}
	}
	return nil
}

// CtxErr reports a context's error, tolerating the nil ("no deadline")
// context the internal query funnels thread through their hot loops.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Coverage reports which fraction of a sharded corpus contributed to a
// degraded (partial-mode) answer. Results are exact over the covered subset:
// every returned entry is the true top-k entry of the covered items, because
// floors are only ever harvested from shards that answered (see the shard
// package's exactness argument).
type Coverage struct {
	// Shards is the number of live shards at query time; Answered how many
	// of them contributed results.
	Shards   int
	Answered int
	// Items is the corpus size; ItemsCovered how many items the answering
	// shards hold between them.
	Items        int
	ItemsCovered int
	// Skipped lists the shard ids excluded from the answer (quarantined
	// before the query, or failed/timed out during it), ascending.
	Skipped []int
}

// Complete reports whether every live shard answered — a partial-mode query
// over a healthy composite returns exactly the strict-mode result.
func (c Coverage) Complete() bool { return len(c.Skipped) == 0 }

// String renders the coverage report ("4/4 shards, 1000/1000 items" or
// "3/4 shards, 750/1000 items (skipped [2])").
func (c Coverage) String() string {
	if c.Complete() {
		return fmt.Sprintf("%d/%d shards, %d/%d items", c.Answered, c.Shards, c.ItemsCovered, c.Items)
	}
	return fmt.Sprintf("%d/%d shards, %d/%d items (skipped %v)", c.Answered, c.Shards, c.ItemsCovered, c.Items, c.Skipped)
}

// PartialQuerier is the optional interface for composite solvers that can
// answer from the healthy subset of their partitions when some are
// quarantined, failing, or past deadline — graceful degradation. The
// returned Coverage names exactly what the answer covers; rows may hold
// fewer than k entries when the covered corpus cannot fill them. Strict
// (fail-closed) behavior stays the default everywhere; callers opt into
// degraded answers by calling this method.
type PartialQuerier interface {
	QueryPartial(ctx context.Context, userIDs []int, k int) ([][]topk.Entry, Coverage, error)
}

// QueryCtx implements Solver for the naive reference solver, polling between
// users — each user's scan is one natural work unit.
func (n *Naive) QueryCtx(ctx context.Context, userIDs []int, k int, opts QueryOptions) ([][]topk.Entry, error) {
	if err := ValidateQueryOptions(userIDs, opts); err != nil {
		return nil, err
	}
	if n.users == nil {
		return nil, fmt.Errorf("mips: Query before Build")
	}
	if err := ValidateK(k, n.items.Rows()); err != nil {
		return nil, err
	}
	out := make([][]topk.Entry, len(userIDs))
	for qi, u := range userIDs {
		if err := CtxErr(ctx); err != nil {
			return nil, err
		}
		if u < 0 || u >= n.users.Rows() {
			return nil, fmt.Errorf("mips: user id %d out of range [0,%d)", u, n.users.Rows())
		}
		floor := floorAt(opts, qi)
		h := topk.NewSeeded(k, floor)
		urow := n.users.Row(u)
		for j := 0; j < n.items.Rows(); j++ {
			h.Push(j, mat.Dot(urow, n.items.Row(j)))
		}
		out[qi] = h.Sorted()
	}
	return out, nil
}

// floorAt resolves one user's floor from a QueryOptions floor source
// (-Inf when none).
func floorAt(opts QueryOptions, qi int) float64 {
	if opts.Floors != nil {
		return opts.Floors[qi]
	}
	if opts.Board != nil {
		return opts.Board.Floor(qi)
	}
	return math.Inf(-1)
}
