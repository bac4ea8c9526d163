package shard

import (
	"fmt"
	"sync"

	"optimus/internal/core"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/parallel"
)

// OptimusPlanner applies the paper's §IV sample-and-measure decision once
// per shard instead of once per workload: for each shard it instantiates a
// fresh BMM-vs-indexes optimizer over the shard's items, measures every
// candidate on the sampled users, and keeps the built winner. On a corpus
// whose shards sit in different regimes (a norm-skewed head, a flat tail),
// different shards genuinely get different strategies — the finer-grained
// version of the paper's "to index or not to index" answer.
//
// Planning cost is amortized across the shards: every Plan call sees the
// same user population, so the user sample and the BMM baseline rate from
// the first shard's measurement are cached (core.SharedMeasurement) and
// reused by the rest — later shards synthesize BMM's estimate from the
// stored per-(user·item) rate instead of re-querying, roughly halving plan
// time. Every sample a plan does run is timed twice and the faster kept
// (core.Optimus.MeasureShared), so a one-off stall cannot set the cached
// rate or a shard's strategy. SetThreads flushes the cache, since the rate is only valid at the
// parallelism it was measured at. Plan calls are serialized internally:
// Sharded.Build plans shards one at a time so timing measurements never
// contend, but background re-plans (quarantine revival, retune staging) can
// race each other, and the mutex makes the shared cache safe under that —
// the measurements themselves still never overlap.
type OptimusPlanner struct {
	mu         sync.Mutex
	cfg        core.OptimusConfig
	planK      int
	candidates []mips.Factory
	shared     core.SharedMeasurement
}

// DefaultPlanK is the top-K depth a planner measures at when the config
// leaves it zero; it matches the repository's default reporting depth.
const DefaultPlanK = 10

// NewOptimusPlanner returns a Planner choosing per shard between BMM and
// the index candidates the factories construct (none is valid: the plan
// degenerates to BMM everywhere). planK is the top-K depth the measurement
// runs at; <= 0 selects DefaultPlanK. The OptimusConfig zero value selects
// the paper's settings, as in core.NewOptimus.
func NewOptimusPlanner(cfg core.OptimusConfig, planK int, candidates ...mips.Factory) *OptimusPlanner {
	if planK <= 0 {
		planK = DefaultPlanK
	}
	return &OptimusPlanner{cfg: cfg, planK: planK, candidates: candidates}
}

// Name implements Planner.
func (p *OptimusPlanner) Name() string { return "OPTIMUS" }

// SetThreads implements mips.ThreadSetter: subsequent Plan calls measure at
// the given parallelism. Sharded.Build forwards its own Threads here before
// planning, so each shard's decision is measured at the parallelism the
// winner will actually run at — sampling at one thread count and running at
// another would bias the crossover (see core.OptimusConfig.Threads). The
// amortization cache is flushed: a baseline rate measured at the old
// parallelism would poison every subsequent decision.
func (p *OptimusPlanner) SetThreads(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cfg.Threads = parallel.Resolve(n)
	p.shared = core.SharedMeasurement{}
}

// Plan implements Planner: run one sampled measurement over this shard's
// items and return the built winner. The measurement's sampled results are
// discarded (they cover only the plan depth), but index construction is
// retained — the winner is ready to query.
func (p *OptimusPlanner) Plan(users, items *mat.Matrix) (mips.Solver, string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	indexes := make([]mips.Solver, 0, len(p.candidates))
	for i, factory := range p.candidates {
		solver := factory()
		if solver == nil {
			return nil, "", fmt.Errorf("shard: planner candidate %d factory returned nil solver", i)
		}
		indexes = append(indexes, solver)
	}
	k := p.planK
	if k > items.Rows() {
		k = items.Rows()
	}
	opt := core.NewOptimus(p.cfg, indexes...)
	dec, err := opt.MeasureShared(users, items, k, &p.shared)
	if err != nil {
		return nil, "", err
	}
	return opt.Solver(dec.Winner), dec.Winner, nil
}
