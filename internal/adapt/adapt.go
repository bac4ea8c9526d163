// Package adapt is the drift-driven re-structuring surface: the shared
// vocabulary through which index structures report how far the live corpus
// has drifted from the snapshot they were built for (DriftStats), the
// configurable rules that decide when drift warrants acting (Policy), and a
// background Tuner (tuner.go) that turns a firing rule into a staged
// re-structure committed at the owner's drain boundary.
//
// The package exists because the OPTIMUS thesis — the right index is a
// *measured* decision (§IV) — goes stale the moment the corpus churns: the
// by-norm cutoffs, the shard count S, the per-shard index-vs-scan plans,
// and the wave schedule were all chosen for the build-time distribution.
// The composite already collects the evidence of that decay (per-shard
// churn counters, arrival routing, scan meters); adapt gives the evidence
// one shape and one trigger surface. Reporter is implemented by
// shard.Sharded and serving.Server only: a single solver does not report
// drift, because a baseline is made mutable by the composite's rebuilds and
// a served solver patches in place.
//
// adapt deliberately depends on nothing but the standard library, so any
// layer — solver, composite, serving — can implement Reporter or Driver
// without an import cycle.
package adapt

import (
	"errors"
	"fmt"
	"time"
)

// DriftStats is a point-in-time drift measurement: how far a structure's
// live corpus has moved from the distribution it was last (re)structured
// for. All counters are "since the last (re)build or committed retune" —
// a commit resets them, so a freshly structured index reports zero drift.
type DriftStats struct {
	// Generation is the owner's mips.ItemMutator stamp at measurement time.
	Generation uint64
	// Items is the current corpus size.
	Items int
	// Adds and Removes count item arrivals/departures absorbed since the
	// last (re)structure.
	Adds, Removes int64
	// Partitions holds the live partition sizes (shard item counts for the
	// composite, leaf sizes for a tree); nil when the structure has a
	// single partition.
	Partitions []int
	// Imbalance is max(partition size) / mean(live partition size): 1.0 for
	// a perfectly balanced cut, growing as churn concentrates mass. Zero
	// when fewer than two partitions are live.
	Imbalance float64
	// ArrivalSkew measures arrival-norm drift against the build-time
	// routing cutoffs: the fraction by which the most-loaded partition's
	// share of routed arrivals exceeds the uniform share, normalized to
	// [0,1] — 0 when arrivals spread like the build-time cut (each
	// partition gets ~1/S), 1 when every arrival lands in one partition
	// (the cutoffs no longer describe the data). Zero when nothing has
	// been routed.
	ArrivalSkew float64
	// BaselineScanPerUser is the locked build-time scan-rate baseline:
	// scanned candidates per served user measured over the first
	// DefaultMinWindowUsers users after the last (re)structure. Zero until
	// the window fills (or when the structure is unmetered) — scan-regression
	// triggers stay silent until it locks.
	BaselineScanPerUser float64
	// ScannedSinceBaseline / UsersSinceBaseline are the post-lock meters
	// the current scan rate is computed from.
	ScannedSinceBaseline int64
	UsersSinceBaseline   int64
	// Retunes counts re-structures committed since Build.
	Retunes int
}

// Churn is the total mutation volume since the last (re)structure.
func (d DriftStats) Churn() int64 { return d.Adds + d.Removes }

// ScanPerUser is the current post-baseline scan rate (0 before any
// post-baseline user is served).
func (d DriftStats) ScanPerUser() float64 {
	if d.UsersSinceBaseline <= 0 {
		return 0
	}
	return float64(d.ScannedSinceBaseline) / float64(d.UsersSinceBaseline)
}

// ScanRegression is the relative scan-rate increase over the locked
// baseline ((current-baseline)/baseline), 0 while the baseline is unlocked
// or no post-baseline users have been served. Negative values (the
// structure got *cheaper*) are reported as measured.
func (d DriftStats) ScanRegression() float64 {
	if d.BaselineScanPerUser <= 0 || d.UsersSinceBaseline <= 0 {
		return 0
	}
	return (d.ScanPerUser() - d.BaselineScanPerUser) / d.BaselineScanPerUser
}

// Reporter is implemented by structures that measure their own drift
// (shard.Sharded, serving.Server).
type Reporter interface {
	DriftStats() DriftStats
}

// Policy is the configurable trigger rule set Evaluate applies to a
// DriftStats measurement. For every threshold the zero value selects the
// documented default and a negative value disables that trigger; the zero
// Policy is therefore a sensible composite default, and a single-trigger
// policy disables the rest explicitly.
type Policy struct {
	// MaxImbalance fires "imbalance" when DriftStats.Imbalance exceeds it.
	// Default 1.5 (the most-loaded partition holds 50% more than its fair
	// share).
	MaxImbalance float64
	// MaxArrivalSkew fires "arrival-skew" when DriftStats.ArrivalSkew
	// exceeds it — the norm-cutoff misrouting trigger: arrivals
	// concentrating in one partition mean the build-time cutoffs no longer
	// cut the live distribution. Default 0.6.
	MaxArrivalSkew float64
	// MaxScanRegression fires "scan-regression" when the current scan rate
	// exceeds the locked baseline by this fraction. Default 0.25 (+25%
	// scanned candidates per user).
	MaxScanRegression float64
	// MinChurn gates every churn-derived trigger (imbalance,
	// arrival-skew): none fires before this many mutations have been
	// absorbed, so a handful of arrivals cannot thrash the structure.
	// Default 32.
	MinChurn int64
	// MinWindowUsers gates the scan-regression trigger: it fires only
	// after this many post-baseline users have been served, so the rate
	// comparison never runs on a statistically empty window. Default 64.
	MinWindowUsers int64
}

// Default thresholds (see the Policy field docs).
const (
	DefaultMaxImbalance      = 1.5
	DefaultMaxArrivalSkew    = 0.6
	DefaultMaxScanRegression = 0.25
	DefaultMinChurn          = 32
	DefaultMinWindowUsers    = 64
)

// WithDefaults resolves zero-valued fields to the documented defaults and
// leaves negative (disabled) and explicit values alone.
func (p Policy) WithDefaults() Policy {
	if p.MaxImbalance == 0 {
		p.MaxImbalance = DefaultMaxImbalance
	}
	if p.MaxArrivalSkew == 0 {
		p.MaxArrivalSkew = DefaultMaxArrivalSkew
	}
	if p.MaxScanRegression == 0 {
		p.MaxScanRegression = DefaultMaxScanRegression
	}
	if p.MinChurn == 0 {
		p.MinChurn = DefaultMinChurn
	}
	if p.MinWindowUsers == 0 {
		p.MinWindowUsers = DefaultMinWindowUsers
	}
	return p
}

// Trigger identifies which rule fired and with what evidence.
type Trigger struct {
	// Reason is the rule name: "imbalance", "arrival-skew", or
	// "scan-regression".
	Reason string
	// Value is the measured quantity, Threshold the configured limit it
	// exceeded.
	Value, Threshold float64
}

func (t Trigger) String() string {
	if t.Reason == "" {
		return "none"
	}
	return fmt.Sprintf("%s (%.3g > %.3g)", t.Reason, t.Value, t.Threshold)
}

// Evaluate applies the policy to a measurement. Rules are checked in a
// fixed order — imbalance, arrival-skew, scan-regression —
// and the first exceeded threshold is returned, so a caller acting on the
// result sees a deterministic reason for deterministic inputs.
func (p Policy) Evaluate(d DriftStats) (Trigger, bool) {
	p = p.WithDefaults()
	if d.Churn() >= p.MinChurn {
		if p.MaxImbalance > 0 && d.Imbalance > p.MaxImbalance {
			return Trigger{Reason: "imbalance", Value: d.Imbalance, Threshold: p.MaxImbalance}, true
		}
		if p.MaxArrivalSkew > 0 && d.ArrivalSkew > p.MaxArrivalSkew {
			return Trigger{Reason: "arrival-skew", Value: d.ArrivalSkew, Threshold: p.MaxArrivalSkew}, true
		}
	}
	if p.MaxScanRegression > 0 && d.BaselineScanPerUser > 0 &&
		d.UsersSinceBaseline >= p.MinWindowUsers {
		if reg := d.ScanRegression(); reg > p.MaxScanRegression {
			return Trigger{Reason: "scan-regression", Value: reg, Threshold: p.MaxScanRegression}, true
		}
	}
	return Trigger{}, false
}

// RetuneRequest parameterizes one re-structure.
type RetuneRequest struct {
	// Trigger records what fired (informational; stamped into the result).
	Trigger Trigger
	// Shards, when positive, forces the re-structure to this shard count —
	// the deterministic override (tests, operators). Zero defers to the
	// sweep below, or keeps the current count when no candidates are given.
	Shards int
	// ShardCandidates, when non-empty, is the S sweep: every candidate (the
	// current count is always included as the reference) is built and
	// measured on a sampled user subset, OPTIMUS-style, and the measured
	// winner is committed — with hysteresis: a challenger must beat the
	// incumbent by >10% to displace it, so timing noise cannot thrash S.
	ShardCandidates []int
	// SampleFraction is the fraction of users in the timing sample
	// (default 0.05, at least 16 users); SampleK the top-K depth measured
	// (default 10).
	SampleFraction float64
	SampleK        int
}

// ShardSample is one S-sweep measurement.
type ShardSample struct {
	Shards  int
	Elapsed time.Duration
	Chosen  bool
}

// RetuneResult describes a committed re-structure.
type RetuneResult struct {
	Trigger              Trigger
	OldShards, NewShards int
	// Samples holds the S-sweep timings (nil when no sweep ran).
	Samples []ShardSample
	// Attempts counts stage/commit rounds the convenience loop paid; >1
	// means mutations landed mid-stage and the retune was re-staged
	// against the moved corpus.
	Attempts int
}

// StagedRetune is an opaque staged re-structure: produced off-thread by a
// structure's stage phase, committed (or discarded) at its drain boundary.
// The concrete type belongs to the structure; holders only relay it.
type StagedRetune interface {
	// Result previews the RetuneResult a successful commit will report.
	Result() RetuneResult
}

// ErrRetuneStale is returned by a commit whose staged re-structure was
// built against a corpus that has since mutated; the caller re-stages
// against the moved corpus and tries again.
var ErrRetuneStale = errors.New("adapt: staged retune is stale (corpus mutated mid-stage)")

// Driver is the structure a Tuner supervises: it measures its own drift
// and knows how to re-structure itself (stage + commit at its own safe
// boundary). shard.Sharded and serving.Server both implement it.
type Driver interface {
	Reporter
	Retune(RetuneRequest) (RetuneResult, error)
}
