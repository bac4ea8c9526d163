// Package serving provides an online model-serving front end for the MIPS
// solvers — the deployment setting the paper motivates in §II-A: "MAXIMUS
// ... can also accelerate MIPS for a subset of users at a time, as might
// happen in a model serving system like Clipper that collects tens of
// requests at once."
//
// The Server accepts single-user top-K requests from any number of
// goroutines and executes them in micro-batches. The dispatcher is
// work-conserving: a batch is the first queued request plus whatever else is
// already queued (up to MaxBatch), dispatched at once. An idle server answers
// a lone request immediately; requests arriving during a solver call form
// the next batch, so batch size tracks load, not a timer. One solver call is
// in flight at a time, and it sees each distinct (user, k) of a batch once.
// Batching is what the batch solvers reward: MAXIMUS shares one block
// multiply per cluster across the batch's users, BMM amortizes its GEMM.
//
// Servers over mutable solvers (mips.ItemMutator) additionally support
// online catalog churn: Mutate applies AddItems/RemoveItems under a
// single-writer/drain handshake — the in-flight batch finishes against the
// old index, the mutation lands exclusively, the next batch serves the new
// generation — and Stats.Generation tells clients when their cached
// positional item ids went stale. Under sustained churn, Log attaches a
// batched mutation log (internal/mutlog) that coalesces events and pays one
// drain and one generation tick per flushed batch instead of per event,
// with mutlog.Config.MaxDelay bounding how stale the served catalog may run.
package serving

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"optimus/internal/mips"
	"optimus/internal/mutlog"
	"optimus/internal/topk"
)

// Config controls batching behaviour.
type Config struct {
	// MaxBatch caps a batch: a dispatch takes what is waiting when the
	// solver becomes free, at most this many requests. Default 64.
	MaxBatch int
	// QueueDepth bounds the number of requests waiting for a batch slot;
	// Query blocks (or fails with ctx) when the queue is full. Default 1024.
	QueueDepth int
	// AllowPartial switches the server to degraded-mode dispatch: batches
	// are answered through the solver's mips.PartialQuerier — results come
	// from the healthy shards, skipped shards appear in the Coverage report
	// QueryPartial returns — instead of failing closed on the first shard
	// fault. New rejects the setting when the solver cannot answer
	// partially. The default (false) keeps strict fail-closed dispatch.
	AllowPartial bool
}

// DefaultConfig returns the defaults documented on Config.
func DefaultConfig() Config {
	return Config{MaxBatch: 64, QueueDepth: 1024}
}

// Stats is a snapshot of server counters.
type Stats struct {
	// Requests is the number of requests answered by the solver (result or
	// error); requests dropped as already cancelled are not counted.
	Requests int64
	// Coalesced is how many of them shared a batch-mate's solver row.
	Coalesced int64
	// Batches is the number of dispatches that reached the solver.
	Batches int64
	// MeanBatchSize is Requests/Batches.
	MeanBatchSize float64
	// Generation counts Mutate calls that changed the item catalog — the
	// serving-side catalog version. A client caching item-id translations
	// compares generations to detect that the positional ids it holds
	// predate a catalog swap (see the mips.ItemMutator compaction
	// contract). A Mutate whose fn performed no successful item mutation
	// (including user-arrival-only maintenance) does not advance it.
	Generation uint64
	// LogPending / LogFlushes / LogFlushedEvents mirror the attached
	// mutation log's counters (see Log): events waiting for a flush,
	// non-empty batches applied, and catalog events applied through them.
	// All zero when no log is attached.
	LogPending       int
	LogFlushes       int64
	LogFlushedEvents int64
	// LogRetries and LastFlushErr mirror the log's backoff state: retry
	// sleeps the background flusher has taken after failed applies, and the
	// most recent apply error (nil once a flush succeeds). A growing
	// LogRetries with a stable LogFlushes means enqueued mutations are
	// stalled behind a failing applier — the serving-side signal to
	// inspect LastFlushErr rather than keep enqueueing.
	LogRetries   int64
	LastFlushErr error
	// Schedule is the wave schedule the solver is actively running ("" when
	// the solver has no wave scheduling), and WaveScans its cumulative
	// per-wave scan counts (nil likewise) — the serving-side view of the
	// sharded executor's fan-out structure. WaveScans indexes by wave of the
	// active schedule: [head, tails] for two-wave, a single total for
	// single-wave.
	Schedule  string
	WaveScans []mips.ScanStats
}

// waveScheduler is the structural interface a wave-scheduling solver (the
// sharded executor) satisfies; serving stays decoupled from the shard
// package by naming only the methods.
type waveScheduler interface {
	ActiveScheduleName() string
	WaveScanStats() []mips.ScanStats
}

type request struct {
	userID int
	k      int
	// ctx is the submitting Query's context: dispatch drops the request
	// when it is already cancelled, and the group's solver call runs under
	// a context derived from the members' deadlines.
	ctx  context.Context
	done chan response
}

type response struct {
	entries []topk.Entry
	cov     mips.Coverage // degraded-mode coverage (AllowPartial only)
	err     error
}

// Server batches single-user requests onto a built mips.Solver.
// Create with New, stop with Close. Safe for concurrent use.
type Server struct {
	cfg    Config
	solver mips.Solver

	queue chan request
	stop  chan struct{}
	wg    sync.WaitGroup
	// inflight tracks Query calls that have passed the closed check, so
	// Close can wait for them before stopping the dispatcher. Without it,
	// a Query racing Close could enqueue into a server whose dispatcher has
	// already drained and exited, and wait forever.
	inflight sync.WaitGroup

	// solverMu is the generation-swap handshake: every batch dispatch holds
	// the read side for its whole solver interaction, Mutate holds the write
	// side. Acquiring the write lock therefore *drains* — it waits for the
	// in-flight batch to finish against the old index and holds off the next
	// batch until the mutation lands. Requests arriving meanwhile simply
	// queue (bounded by QueueDepth); none are dropped.
	solverMu sync.RWMutex

	coalesced  atomic.Int64 // Stats.Coalesced; not under mu
	mu         sync.Mutex
	requests   int64
	batches    int64
	generation uint64
	log        *mutlog.Log
	closed     bool
	// snapshotSeq is the journal watermark embedded in the snapshot this
	// server was restored from (zero for servers built fresh); Replay skips
	// journal records at or below it. Set once by Restore, before the
	// server is shared.
	snapshotSeq uint64
}

// ErrClosed is returned by Query after Close.
var ErrClosed = errors.New("serving: server closed")

// New starts a server around an already-built solver. Zero-valued config
// fields fall back to defaults.
func New(solver mips.Solver, cfg Config) (*Server, error) {
	if solver == nil {
		return nil, fmt.Errorf("serving: nil solver")
	}
	def := DefaultConfig()
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = def.MaxBatch
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = def.QueueDepth
	}
	if cfg.AllowPartial {
		if _, ok := solver.(mips.PartialQuerier); !ok {
			return nil, fmt.Errorf("serving: %s cannot answer partially (mips.PartialQuerier)", solver.Name())
		}
	}
	s := &Server{
		cfg:    cfg,
		solver: solver,
		queue:  make(chan request, cfg.QueueDepth),
		stop:   make(chan struct{}),
	}
	s.wg.Add(1)
	go s.loop()
	return s, nil
}

// Query answers one user's exact top-k, waiting for a batch slot. It returns
// the solver's error for invalid ids or k, ctx.Err() on cancellation
// (whether it fires while queued or after dispatch began — the deadline
// propagates into the solver call itself when the solver is cancellable),
// and ErrClosed after Close.
func (s *Server) Query(ctx context.Context, userID, k int) ([]topk.Entry, error) {
	resp, err := s.submit(ctx, userID, k)
	if err != nil {
		return nil, err
	}
	return resp.entries, resp.err
}

// QueryPartial is Query under degraded-mode dispatch (Config.AllowPartial):
// alongside the entries it reports exactly which shards of the backing
// solver answered — an answer with an incomplete Coverage is exact over the
// covered item subset and silent about the rest.
func (s *Server) QueryPartial(ctx context.Context, userID, k int) ([]topk.Entry, mips.Coverage, error) {
	if !s.cfg.AllowPartial {
		return nil, mips.Coverage{}, errors.New("serving: QueryPartial requires Config.AllowPartial")
	}
	resp, err := s.submit(ctx, userID, k)
	if err != nil {
		return nil, mips.Coverage{}, err
	}
	return resp.entries, resp.cov, resp.err
}

// submit enqueues one request and waits for its response or ctx.
func (s *Server) submit(ctx context.Context, userID, k int) (response, error) {
	// Registering under the lock makes enqueue-vs-Close atomic: once this
	// succeeds the dispatcher is guaranteed to outlive the request.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return response{}, ErrClosed
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()

	req := request{userID: userID, k: k, ctx: ctx, done: make(chan response, 1)}
	select {
	case s.queue <- req:
	case <-ctx.Done():
		return response{}, ctx.Err()
	}
	select {
	case resp := <-req.done:
		return resp, nil
	case <-ctx.Done():
		// The batch may still execute; the buffered done channel lets it
		// complete (and its late response be dropped) without leaking a
		// goroutine or blocking the dispatcher.
		return response{}, ctx.Err()
	}
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{Requests: s.requests, Coalesced: s.coalesced.Load(), Batches: s.batches,
		Generation: s.generation}
	if s.batches > 0 {
		st.MeanBatchSize = float64(s.requests) / float64(s.batches)
	}
	log := s.log
	s.mu.Unlock()
	// The log snapshot is taken outside s.mu: a flush holds the log's lock
	// while ticking the generation under s.mu, so nesting the locks the
	// other way here would deadlock.
	if log != nil {
		ls := log.Stats()
		st.LogPending = ls.PendingEvents
		st.LogFlushes = ls.Flushes
		st.LogFlushedEvents = ls.FlushedEvents
		st.LogRetries = ls.Retries
		st.LastFlushErr = ls.LastFlushErr
	}
	// The schedule view reads the solver without s.mu: schedule changes go
	// through the solver lock (Mutate-style exclusivity), and the scan
	// counters are atomics inside the sub-solvers.
	if ws, ok := s.solver.(waveScheduler); ok {
		st.Schedule = ws.ActiveScheduleName()
		st.WaveScans = ws.WaveScanStats()
	}
	return st
}

// NumItems reports the item count of the underlying solver's corpus, or -1
// when the solver does not report sizes (mips.Sized). Clients use it to
// bound k; the mutation log anchors its id space on it.
func (s *Server) NumItems() int {
	if sized, ok := s.solver.(mips.Sized); ok {
		return sized.NumItems()
	}
	return -1
}

// ErrNotMutable is returned by Mutate when the underlying solver does not
// implement mips.ItemMutator.
var ErrNotMutable = errors.New("serving: solver does not support item mutation")

// Mutate applies a catalog mutation to the underlying solver with the
// single-writer/drain handshake: the in-flight batch (if any) finishes
// against the old index, fn runs exclusively — no query observes a
// half-applied mutation — and the next batch serves the new generation.
// Queries arriving during the swap queue as usual. fn receives the solver
// as a mips.ItemMutator and typically calls AddItems/RemoveItems (possibly
// several times; the whole fn is one atomic swap from the server's
// perspective, and one Stats.Generation tick). fn may also perform other
// maintenance that must not run concurrently with queries — e.g. a
// mips.UserAdder's AddUsers on the same solver. fn must NOT call this
// server's Query (directly or transitively): the dispatcher is blocked on
// the solver lock for the duration of fn, so such a query can never be
// answered and the server deadlocks — query the solver directly inside fn
// if a post-mutation sanity check is needed. Mutate returns fn's error
// unchanged. The generation advances exactly when the item catalog changed —
// when the solver's own mutation stamp (mips.ItemMutator.Generation) moved
// under fn. A fn that performs no successful item mutation — it returns
// early, every mutator call fails, or it only does non-catalog maintenance
// such as mips.UserAdder.AddUsers — pays the drain (that is unavoidable: fn
// must run exclusively to find out) but does NOT tick the generation, so
// clients' cached id translations are not invalidated for nothing. The
// stamp-delta rule also keeps the staleness protocol honest in the narrow
// mid-fn *solver bug* case (some mutator calls succeeded before one
// corrupted the solver): the catalog did change, so the generation ticks
// even though fn reports an error — after which the server should be
// replaced along with its solver. Writers are serialized; Mutate may be
// called from any goroutine, including after Close (the drain is then
// trivially empty).
//
// An unsharded baseline (the cone tree, FEXIPRO; see internal/mips) is not
// a mips.ItemMutator, so Mutate returns ErrNotMutable for it. To serve a
// baseline mutable, serve it as an S = 1 composite (shard.Sharded), which
// rebuilds it on every mutation; the composite's own overhead at S = 1 is
// ≈ 0 (the benchmark's shard.s1_overhead_frac row).
func (s *Server) Mutate(fn func(mips.ItemMutator) error) error {
	mut, ok := s.solver.(mips.ItemMutator)
	if !ok {
		return fmt.Errorf("%w (%s)", ErrNotMutable, s.solver.Name())
	}
	s.solverMu.Lock()
	before := mut.Generation()
	err := fn(mut)
	if mut.Generation() != before {
		// Advance the generation before releasing the write lock: no batch
		// may be answered from the new catalog while Stats still reports
		// the old generation, or the client staleness protocol breaks.
		s.mu.Lock()
		s.generation++
		s.mu.Unlock()
	}
	s.solverMu.Unlock()
	return err
}

// Log attaches a batched mutation log (internal/mutlog) to the server: Add
// and Remove enqueue catalog events, and a flush — explicit, size-triggered
// (Config.MaxEvents), or staleness-triggered by the log's background
// flusher (Config.MaxDelay, the bound on writer starvation) — applies the
// coalesced batch through Mutate: one drain and one generation tick for the
// whole batch instead of one per event. Stats mirrors the log's pending and
// flushed counters.
//
// The solver must be a mips.ItemMutator and report its corpus size
// (mips.Sized); an unsharded baseline returns ErrNotMutable, so serve it as
// an S = 1 composite, as Mutate describes. At most one log may be attached per server, and once it is,
// every catalog mutation must flow through it — a direct Mutate that
// changes the corpus behind the log's back voids its id bookkeeping (the
// log detects the drift and fails its next flush). Close closes the log
// (flushing any pending batch) before stopping; callers who need the final
// flush's error close the log explicitly first — Log.Close is idempotent.
func (s *Server) Log(cfg mutlog.Config) (*mutlog.Log, error) {
	if _, ok := s.solver.(mips.ItemMutator); !ok {
		return nil, fmt.Errorf("%w (%s)", ErrNotMutable, s.solver.Name())
	}
	if s.NumItems() < 0 {
		return nil, fmt.Errorf("serving: %s does not report its corpus size (mips.Sized)", s.solver.Name())
	}
	log, err := mutlog.New(s, cfg)
	if err != nil {
		return nil, err
	}
	// Attach under the same lock Close uses to set closed and snapshot the
	// log: a log can never slip in after (or concurrently with) Close, or
	// its background flusher would outlive the server unclosed.
	s.mu.Lock()
	switch {
	case s.closed:
		s.mu.Unlock()
		log.Close()
		return nil, ErrClosed
	case s.log != nil:
		s.mu.Unlock()
		log.Close()
		return nil, errors.New("serving: server already has a mutation log")
	}
	s.log = log
	s.mu.Unlock()
	return log, nil
}

// Close rejects new queries, waits for in-flight ones to be answered, stops
// the dispatcher, and closes the attached mutation log (if any), flushing
// its pending batch into the now-idle solver. Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	log := s.log
	s.mu.Unlock()
	// In-flight queries still hold the dispatcher; it must not exit before
	// they are answered (or abandoned via their contexts).
	s.inflight.Wait()
	close(s.stop)
	s.wg.Wait()
	if log != nil {
		// Final-flush errors are retained in the log's Stats; callers who
		// must observe them close the log themselves first (idempotent).
		_ = log.Close()
	}
}

// loop is the work-conserving dispatcher (see the package comment).
func (s *Server) loop() {
	defer s.wg.Done()
	for {
		select {
		case first := <-s.queue:
			s.dispatch(s.take([]request{first}))
		case <-s.stop:
			s.drain()
			return
		}
	}
}

// take tops batch up from the queue to at most MaxBatch; it never waits.
func (s *Server) take(batch []request) []request {
	for len(batch) < s.cfg.MaxBatch {
		select {
		case req := <-s.queue:
			batch = append(batch, req)
		default:
			return batch
		}
	}
	return batch
}

// drain answers everything still queued at shutdown.
func (s *Server) drain() {
	for batch := s.take(nil); len(batch) > 0; batch = s.take(nil) {
		s.dispatch(batch)
	}
}

// dispatch groups a batch by k (the solver API takes one k per call) and
// executes each group with a single solver call. It holds the solver read
// lock throughout, so the whole batch — retries included — answers against
// one catalog generation (see Mutate).
func (s *Server) dispatch(batch []request) {
	s.solverMu.RLock()
	defer s.solverMu.RUnlock()
	byK := make(map[int][]request)
	live := 0
	for _, req := range batch {
		// A request whose caller already gave up pays no solver time; its
		// Query returned ctx.Err() at cancellation and the buffered done
		// channel absorbs this late error.
		if req.ctx != nil && req.ctx.Err() != nil {
			req.done <- response{err: req.ctx.Err()}
			continue
		}
		byK[req.k] = append(byK[req.k], req)
		live++
	}
	if live == 0 {
		return
	}
	// Counted before the answers go out: a caller holding one finds it in Stats.
	s.mu.Lock()
	s.requests += int64(live)
	s.batches++
	s.mu.Unlock()
	for k, reqs := range byK {
		ctx, cancel := groupContext(reqs)
		err := s.answerGroup(ctx, reqs, k)
		if cancel != nil {
			cancel()
		}
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// Not retryable: a retry would run past the same deadline
			// again, stalling every later group behind a dead one.
			for _, req := range reqs {
				req.done <- response{err: err}
			}
		default:
			s.retryGroup(reqs, k)
		}
	}
}

// answerGroup answers one k-group with a single solver call over its
// distinct user ids. Requesters of one user each get their own slice, the
// solver's row going to the last: its owner may write to it once it is
// handed out. On error nobody has been answered.
func (s *Server) answerGroup(ctx context.Context, reqs []request, k int) error {
	ids := make([]int, 0, len(reqs))
	row := make(map[int]int, len(reqs)) // user id → its row of the solver's answer
	var left []int                      // per row, requesters not yet answered
	for _, req := range reqs {
		r, ok := row[req.userID]
		if !ok {
			r = len(ids)
			row[req.userID] = r
			ids = append(ids, req.userID)
			left = append(left, 0)
		}
		left[r]++
	}
	results, cov, err := s.queryGroup(ctx, ids, k)
	if err != nil {
		return err
	}
	s.coalesced.Add(int64(len(reqs) - len(ids)))
	for _, req := range reqs {
		r := row[req.userID]
		entries := results[r]
		if left[r]--; left[r] > 0 {
			entries = append([]topk.Entry(nil), entries...)
		}
		req.done <- response{entries: entries, cov: cov}
	}
	return nil
}

// queryGroup is the single seam every batch (and retry) answers through:
// degraded-mode dispatch under Config.AllowPartial, the strict QueryCtx
// otherwise (ctx is nil when the group carries no deadline).
func (s *Server) queryGroup(ctx context.Context, ids []int, k int) ([][]topk.Entry, mips.Coverage, error) {
	if s.cfg.AllowPartial {
		pq := s.solver.(mips.PartialQuerier) // checked at New
		return pq.QueryPartial(ctx, ids, k)
	}
	res, err := s.solver.QueryCtx(ctx, ids, k, mips.QueryOptions{})
	return res, mips.Coverage{}, err
}

// groupContext derives the context for one k-group's solver call: the
// latest member deadline when every member carries one (so no member's
// answer is cut short by a stranger's tighter budget — each caller's own
// ctx still bounds what it waits for), and no context at all as soon as one
// member is deadline-free (the batch must not inherit a bound its members
// did not all ask for). The returned cancel, when non-nil, must be called
// to release the deadline timer.
func groupContext(reqs []request) (context.Context, context.CancelFunc) {
	var latest time.Time
	for _, req := range reqs {
		if req.ctx == nil {
			return nil, nil
		}
		d, ok := req.ctx.Deadline()
		if !ok {
			return nil, nil
		}
		if d.After(latest) {
			latest = d
		}
	}
	if latest.IsZero() {
		return nil, nil
	}
	return context.WithDeadline(context.Background(), latest)
}

// retryGroup handles a k-group whose batched Query failed. A bad id or k
// poisons only the requests that carry it, so the healthy majority should
// not pay a per-request solver call each: when the solver reports its
// corpus dimensions (mips.Sized), the poisoned requests are identified by
// inspection, answered individually (one probe each, preserving the
// solver's own error text), and everything else is answered by a single
// group retry — O(poisoned) extra solver calls instead of O(batch). Solvers
// without size information fall back to the serial path.
func (s *Server) retryGroup(reqs []request, k int) {
	sized, ok := s.solver.(mips.Sized)
	if !ok {
		s.retrySerial(reqs)
		return
	}
	nUsers, nItems := sized.NumUsers(), sized.NumItems()
	var good, bad []request
	for _, req := range reqs {
		if req.userID < 0 || req.userID >= nUsers || req.k < 1 || req.k > nItems {
			bad = append(bad, req)
		} else {
			good = append(good, req)
		}
	}
	if len(bad) == 0 {
		// The failure was not request-shaped (solver fault); the serial
		// path at least salvages whatever still answers.
		s.retrySerial(reqs)
		return
	}
	for _, req := range bad {
		_, _, err := s.queryGroup(nil, []int{req.userID}, req.k)
		if err == nil {
			// The solver accepted what the size check rejected; trust the
			// solver and fold the request into the healthy retry.
			good = append(good, req)
			continue
		}
		req.done <- response{err: err}
	}
	if len(good) > 0 && s.answerGroup(nil, good, k) != nil {
		s.retrySerial(good)
	}
}

// retrySerial answers every request with its own solver call — the last
// resort when the poison cannot be localized. Retries run without the group
// context (the original failure was not a deadline; see dispatch).
func (s *Server) retrySerial(reqs []request) {
	for _, req := range reqs {
		if err := s.answerGroup(nil, []request{req}, req.k); err != nil {
			req.done <- response{err: err}
		}
	}
}
