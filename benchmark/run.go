package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"optimus/internal/dataset"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/parallel"
	"optimus/internal/topk"
)

// scoreTol is the relative score tolerance of every answer check: solvers
// sum in different orders, so scores agree to rounding, ids exactly.
const scoreTol = 1e-9

// runOpts selects one run of one workload.
type runOpts struct {
	workload workloadDef
	seed     int64
	seconds  float64 // length of the measured phase
	traced   bool    // per-layer run (spans + probes) instead of end-to-end
	smoke    bool    // tiny corpora, for the tier-1 smoke test
}

// sizing is everything that differs between a full-size and a smoke run.
type sizing struct {
	scale      float64
	audit      int           // users whose answers are checked against mips.Naive
	setupReps  int           // least set-ups timed per run (median reported)
	restoreMin int           // least restores timed per run (fastest reported)
	repFor     time.Duration // keep repeating a short set-up or restore for this long
	window     time.Duration // latency / throughput window
	flushEvery time.Duration // writer tick
	probeUsers int           // user subset of the fixed-solver and fan-out probes
}

func (o runOpts) sizing() sizing {
	if o.smoke {
		return sizing{scale: 0.05, audit: 32, setupReps: 2, restoreMin: 2, repFor: 0,
			window: time.Duration(o.seconds / 12 * float64(time.Second)), flushEvery: 15 * time.Millisecond, probeUsers: 64}
	}
	return sizing{scale: o.workload.Scale, audit: 768, setupReps: 5, restoreMin: 7, repFor: time.Second,
		window: 500 * time.Millisecond, flushEvery: 100 * time.Millisecond, probeUsers: 4096}
}

// probeDiv divides the micro-probes' repetition counts on smoke runs.
func (o runOpts) probeDiv() int {
	if o.smoke {
		return 32
	}
	return 1
}

// again reports whether a repeated set-up or restore should run once more:
// at least min times, and — a 20 ms operation needs more than five samples
// for a steady statistic — until repFor has been spent, 40 times at most.
func (sz sizing) again(done, min int, spent time.Duration) bool {
	return done < min || (spent < sz.repFor && done < 40)
}

// runResult is what one run produces: metric samples by name, the operation
// tally, and (traced runs) the spans.
type runResult struct {
	Workload string
	Traced   bool
	// Value is each metric's reported number; Samples the passes, windows
	// or repetitions it was taken from (one sample when there is no series).
	Value     map[string]float64
	Samples   map[string][]float64
	Attempted int64
	Failed    int64
	Wrong     int64 // answers that differ from mips.Naive (a subset of Failed)
	Notes     map[string]string
	Spans     []span
}

func newResult(o runOpts) *runResult {
	return &runResult{Workload: o.workload.Name, Traced: o.traced, Value: make(map[string]float64),
		Samples: make(map[string][]float64), Notes: make(map[string]string)}
}

// set files a metric as the median of its samples.
func (r *runResult) set(name string, vals ...float64) { r.setAs(name, median(vals), vals...) }

// setAs files a metric whose reported value is another statistic of its
// samples than the median (the fastest pass, the best window).
func (r *runResult) setAs(name string, value float64, vals ...float64) {
	r.Value[name], r.Samples[name] = value, vals
}

// audit checks answered rows against the auditor and adds them to the tally.
func (r *runResult) audit(a *auditor, ids []int, rows [][]topk.Entry) {
	for i, u := range ids {
		r.tally(1, a.check(u, rows[i]))
	}
}

// tally counts n answered operations, all right or all wrong.
func (r *runResult) tally(n int64, right bool) {
	r.Attempted += n
	if !right {
		r.Wrong += n
		r.Failed += n
	}
}

// fill gives every metric of the run's table a value, so that a layer the
// workload bypasses reads 0.
func (r *runResult) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := r.Value[d.Name]; !ok {
			r.set(d.Name, 0)
		}
	}
}

// threads pins GOMAXPROCS and the parallel engine to min(nproc, 4) and
// returns the count.
func pinThreads() int {
	t := runtime.NumCPU()
	if t > 4 {
		t = 4
	}
	runtime.GOMAXPROCS(t)
	parallel.SetThreads(t)
	return t
}

// run executes one workload once.
func run(o runOpts) (*runResult, error) {
	pinThreads()
	if o.seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive, got %v", o.seconds)
	}
	switch o.workload.Name {
	case "batch-dense", "batch-skewed":
		return runBatch(o)
	case "serve-wired", "serve-churn":
		return runServe(o)
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload.Name)
}

// generate materialises the workload's registry model. The run seed offsets
// the model's own seed, so equal seeds give equal matrices.
func generate(o runOpts, extra int64, items int) (*dataset.Model, error) {
	cfg, err := dataset.ByName(o.workload.Model)
	if err != nil {
		return nil, err
	}
	cfg = cfg.Scale(o.sizing().scale)
	if items > 0 { // arrival pool: only the item side is used
		cfg.Users, cfg.Items = 1, items
	}
	cfg.Seed += o.seed*1000003 + extra
	return dataset.Generate(cfg)
}

// liveHeapMB forces a full collection and reads the live heap (HeapAlloc:
// bytes in reachable objects, which unlike HeapInuse does not depend on how
// full the allocator's spans happen to be).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// naiveAnswers computes the mips.Naive reference for the listed users, split
// over the pinned threads (Naive itself is serial).
func naiveAnswers(users, items *mat.Matrix, ids []int) ([][]topk.Entry, error) {
	nv := mips.NewNaive()
	if err := nv.Build(users, items); err != nil {
		return nil, err
	}
	out := make([][]topk.Entry, len(ids))
	err := parallel.ForErr(len(ids), 16, func(lo, hi int) error {
		res, err := nv.Query(ids[lo:hi], K)
		if err != nil {
			return err
		}
		copy(out[lo:hi], res)
		return nil
	})
	return out, err
}

// sameAnswer reports whether got is the reference answer: the same item ids
// rank for rank, scores within scoreTol.
func sameAnswer(got, want []topk.Entry) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].Item != want[i].Item {
			return false
		}
		if d := math.Abs(got[i].Score - want[i].Score); d > scoreTol*(1+math.Abs(want[i].Score)) {
			return false
		}
	}
	return true
}

// auditor checks served answers against mips.Naive answers precomputed for a
// subset of users. A rank-for-rank mismatch gets a second opinion from the
// tolerance-aware oracle before it counts as wrong: two items whose scores
// differ in the last ulp may legitimately swap ranks between solvers.
type auditor struct {
	users, items *mat.Matrix
	ref          [][]topk.Entry // by user id; nil = not audited
}

func newAuditor(users, items *mat.Matrix, ids []int) (*auditor, error) {
	ans, err := naiveAnswers(users, items, ids)
	if err != nil {
		return nil, err
	}
	a := &auditor{users: users, items: items, ref: make([][]topk.Entry, users.Rows())}
	for i, u := range ids {
		a.ref[u] = ans[i]
	}
	return a, nil
}

func (a *auditor) check(user int, got []topk.Entry) bool {
	want := a.ref[user]
	if want == nil {
		return len(got) == K
	}
	if sameAnswer(got, want) {
		return true
	}
	return mips.VerifyTopK(a.users.Row(user), a.items, got, K, scoreTol) == nil
}

// auditSet picks the audited users: half from the hottest popularity ranks
// (so most served responses are checked), half uniformly from the rest.
func auditSet(rng *rand.Rand, pop *popularity, users, n int) []int {
	if n > users {
		n = users
	}
	seen := make(map[int]bool, n)
	ids := make([]int, 0, n)
	for r := 0; r < n/2; r++ {
		u := pop.byRank(r)
		seen[u] = true
		ids = append(ids, u)
	}
	for len(ids) < n {
		if u := rng.Intn(users); !seen[u] {
			seen[u] = true
			ids = append(ids, u)
		}
	}
	return ids
}

// sampleIDs returns n distinct user ids (all of them when n >= users),
// ascending, drawn from rng.
func sampleIDs(rng *rand.Rand, users, n int) []int {
	if n >= users {
		return mips.AllUserIDs(users)
	}
	ids := rng.Perm(users)[:n]
	sort.Ints(ids)
	return ids
}

// verifyAll checks a full batch result: every row has K strictly ranked
// in-range entries whose scores are the true inner products, and every
// audited user's row is the mips.Naive answer. It returns the number of wrong
// rows. (A full-corpus miss check of all users would cost a Naive pass — 27 s
// on batch-skewed — so the exhaustive check is kept to the audited users.)
func verifyAll(a *auditor, results [][]topk.Entry) int64 {
	var wrong atomic.Int64
	parallel.For(len(results), 256, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			if !rowPlausible(a.users.Row(u), a.items, results[u]) || !a.check(u, results[u]) {
				wrong.Add(1)
			}
		}
	})
	return wrong.Load()
}

func rowPlausible(user []float64, items *mat.Matrix, row []topk.Entry) bool {
	if len(row) != K {
		return false
	}
	for r, e := range row {
		if e.Item < 0 || e.Item >= items.Rows() {
			return false
		}
		truth := mat.Dot(user, items.Row(e.Item))
		if math.Abs(truth-e.Score) > scoreTol*(1+math.Abs(truth)) {
			return false
		}
		if r > 0 && (e.Score > row[r-1].Score || e.Item == row[r-1].Item) {
			return false
		}
	}
	return true
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
