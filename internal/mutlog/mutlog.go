// Package mutlog implements the batched mutation log: a write-ahead buffer
// that coalesces catalog events (item adds and removes) and applies them at a
// batch boundary — one drain handshake, one serving-generation tick, one
// dirty-shard pass for N events — instead of paying the full
// mutate-vs-query serialization cost per event as Server.Mutate does.
// This is the maintenance-side twin of the paper's §IV decision: just as
// OPTIMUS amortizes a fixed measurement cost over a query batch, the log
// amortizes the writer/drain handshake over a mutation batch (LEMP's bucket
// maintenance and LSH Ensemble's partition maintenance batch updates at the
// same boundary for the same reason).
//
// # Event semantics (the virtual corpus)
//
// Clients enqueue events exactly as they would call the mutator directly:
// every id passed to Remove refers to the corpus as if all previously
// enqueued events had already been applied — the "virtual corpus". Because
// the mips.ItemMutator contract makes ids positional (adds append, removes
// compact densely), the virtual corpus is always
//
//	[surviving live items, ascending] ++ [surviving pending adds, enqueue order]
//
// and the log tracks it exactly: a remove id below the surviving-live count
// is rewritten through the positional-compaction renumbering to the live id
// it denotes; a remove id at or beyond it cancels the pending add it
// denotes — the add never reaches the index and both events annihilate.
// A flush therefore collapses any interleaving of events to at most one
// AddItems (surviving adds, enqueue order) followed by at most one
// RemoveItems (live ids) against the live index, and the flushed corpus is
// exactly the corpus one-event-at-a-time application would produce — the
// property the package's flush-equivalence tests pin with
// mips.VerifyMutation.
//
// # Handles
//
// Add returns one provisional Handle per enqueued item. While the add is
// pending the handle resolves to nothing; the flush that applies it resolves
// it to the real assigned id, and later flushed removals keep the resolution
// current (renumbering survivors, killing removed handles). Handle
// resolutions are valid only while every catalog mutation flows through the
// log; mutating the index behind the log's back voids them (and is caught at
// the next flush — see Flush).
//
// # Flush policy
//
// Three triggers: Flush (explicit), Config.MaxEvents (size — checked at
// enqueue, applied synchronously), and Config.MaxDelay (staleness — enforced
// by a background flusher goroutine, bounding how long a writer's event can
// starve behind query traffic). An empty net batch — nothing pending, or
// every pending pair annihilated — never reaches the applier: no drain, no
// generation tick.
//
// The log is safe for concurrent use. Enqueues block while a flush is
// applying (the apply holds the log's lock through the applier's drain);
// that is the bounded stall batching buys the N-1 events that did not pay
// it.
package mutlog

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"optimus/internal/mat"
	"optimus/internal/mips"
)

// Applier applies one coalesced batch to the live index, serialized against
// whatever query traffic the deployment runs. *serving.Server satisfies it
// (Mutate is the single-writer/drain handshake).
type Applier interface {
	// Mutate runs fn with exclusive access to the index's mutator.
	Mutate(fn func(mips.ItemMutator) error) error
	// NumItems reports the live index's current item count.
	NumItems() int
}

// Config controls the flush policy. Zero values select the documented
// defaults; negative values disable that trigger.
type Config struct {
	// MaxEvents flushes synchronously (inside the enqueueing call) once the
	// pending event count — surviving adds plus pending removes — reaches
	// this. Default 1024; negative disables the size trigger.
	MaxEvents int
	// MaxDelay bounds staleness: a background flusher applies the batch once
	// the oldest pending event has waited this long. Default 10ms; negative
	// disables the background flusher (explicit Flush / MaxEvents only).
	MaxDelay time.Duration
	// Journal, when non-nil, receives a write-ahead record of every
	// accepted event before the log's state changes, plus a marker after
	// every successful non-empty apply — the WAL that crash recovery
	// replays (see Replay and journal.go). A failed journal write rejects
	// the enqueue, so the journal never lags the log.
	Journal io.Writer
}

// Defaults documented on Config.
const (
	DefaultMaxEvents = 1024
	DefaultMaxDelay  = 10 * time.Millisecond
)

// Stats is a snapshot of the log's counters.
type Stats struct {
	// PendingAdds counts enqueued-and-surviving add events (rows).
	PendingAdds int
	// PendingRemoves counts pending remove events (live-index ids).
	PendingRemoves int
	// PendingEvents is PendingAdds + PendingRemoves.
	PendingEvents int
	// Flushes counts successful non-empty applies — each one drain and at
	// most one AddItems plus one RemoveItems against the live index.
	Flushes int64
	// SkippedFlushes counts flush triggers that found an empty net batch and
	// therefore never touched the applier (no drain, no generation tick).
	SkippedFlushes int64
	// FlushErrors counts failed background or size-triggered applies. The
	// events stay pending and the next flush retries them; explicit Flush
	// and Close return apply errors directly.
	FlushErrors int64
	// FlushedAdds / FlushedRemoves / FlushedEvents count events applied to
	// the live index.
	FlushedAdds    int64
	FlushedRemoves int64
	FlushedEvents  int64
	// Cancelled counts add/remove pairs annihilated inside the log (each
	// pair is two enqueued events that never reached the index).
	Cancelled int64
	// JournalErrors counts failed writes of post-apply journal markers. A
	// marker failure means the on-disk journal no longer matches the
	// applied state: the journal must be considered broken and replaced by
	// a fresh snapshot (enqueue-side journal failures, by contrast, reject
	// the enqueue and keep journal and log consistent).
	JournalErrors int64
	// Retries counts backoff sleeps taken by the background flusher after
	// failed applies. The flusher retries a failing batch with capped
	// exponential backoff rather than a constant MaxDelay, so a persistently
	// failing applier costs one attempt per backoff step instead of a hot
	// retry loop; Retries growing while Flushes stands still is the signature
	// of a stuck applier.
	Retries int64
	// LastFlushErr is the most recent apply error, nil again once any flush
	// succeeds. It surfaces the cause behind FlushErrors/Retries without
	// requiring the caller to intercept the background flusher.
	LastFlushErr error
}

// Handle identifies one enqueued item across the flush boundary; see the
// package comment.
type Handle int

// handle states.
const (
	handlePending = iota // enqueued, not yet flushed; pos indexes the add row
	handleLive           // flushed; pos is the current live id
	handleDead           // cancelled in the log, or removed after flushing
)

type handleState struct {
	state uint8
	pos   int
}

// ErrClosed is returned by enqueue and flush calls after Close.
var ErrClosed = errors.New("mutlog: log closed")

// Log is the batched mutation log. Create with New; it is safe for
// concurrent use.
type Log struct {
	applier   Applier
	maxEvents int
	maxDelay  time.Duration

	mu      sync.Mutex
	closed  bool
	liveN   int   // item count of the live index at the last flush
	removed []int // pending removals, ascending live-index ids
	// Write-ahead journal state (journal.go): seq numbers every accepted
	// event and apply marker; appliedSeq is the seq of the last marker —
	// every event with a smaller seq is reflected in the live index, every
	// pending event has a larger one. replaying suppresses the size and
	// staleness triggers so Replay reproduces the recorded flush boundaries
	// exactly.
	journal    io.Writer
	seq        uint64
	appliedSeq uint64
	replaying  bool
	// Pending adds, parallel slices in enqueue order. Cancelled rows stay in
	// place (handle positions reference indexes) until the batch clears.
	addRows   [][]float64
	addHandle []int
	addAlive  []bool
	aliveAdds int
	addCols   int // factor count, fixed by the first Add
	// handles is append-only (a Handle stays resolvable for the log's
	// lifetime, 16 bytes each); liveHandles indexes the handleLive subset so
	// flush-time renumbering touches only handles that can still move, not
	// every handle ever issued.
	handles     []handleState
	liveHandles []int
	deadline    time.Time // staleness deadline of the current batch
	stats       Stats

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// New returns a log applying through the given Applier. The applier's
// current NumItems anchors the virtual-corpus id space; from then on every
// catalog mutation must flow through the log.
func New(applier Applier, cfg Config) (*Log, error) {
	if applier == nil {
		return nil, fmt.Errorf("mutlog: nil applier")
	}
	n := applier.NumItems()
	if n <= 0 {
		return nil, fmt.Errorf("mutlog: applier reports %d items (unbuilt index?)", n)
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = DefaultMaxEvents
	}
	if cfg.MaxDelay == 0 {
		cfg.MaxDelay = DefaultMaxDelay
	}
	l := &Log{
		applier:   applier,
		maxEvents: cfg.MaxEvents,
		maxDelay:  cfg.MaxDelay,
		journal:   cfg.Journal,
		liveN:     n,
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	if l.maxDelay > 0 {
		go l.flusher()
	} else {
		close(l.done)
	}
	return l, nil
}

// Add enqueues the given item vectors (rows are copied; the caller may reuse
// the matrix) and returns one provisional Handle per row, in row order. The
// items join the live index — receiving the contiguous ids the positional
// contract assigns — at the next flush, unless cancelled first.
func (l *Log) Add(items *mat.Matrix) ([]Handle, error) {
	if items == nil || items.Rows() == 0 {
		return nil, fmt.Errorf("mutlog: Add with no items")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if l.addCols != 0 && items.Cols() != l.addCols {
		return nil, fmt.Errorf("mutlog: new items have %d factors, pending adds have %d", items.Cols(), l.addCols)
	}
	// Write-ahead: the event reaches the journal before any state changes;
	// a failed write rejects the enqueue outright.
	if err := l.journalAddLocked(items); err != nil {
		return nil, err
	}
	if l.addCols == 0 {
		l.addCols = items.Cols()
	}
	prev := l.pendingLocked()
	handles := make([]Handle, items.Rows())
	for r := 0; r < items.Rows(); r++ {
		row := make([]float64, items.Cols())
		copy(row, items.Row(r))
		h := len(l.handles)
		l.handles = append(l.handles, handleState{state: handlePending, pos: len(l.addRows)})
		l.addRows = append(l.addRows, row)
		l.addHandle = append(l.addHandle, h)
		l.addAlive = append(l.addAlive, true)
		l.aliveAdds++
		handles[r] = Handle(h)
	}
	l.armLocked(prev)
	l.maybeSizeFlushLocked()
	return handles, nil
}

// Remove enqueues the removal of the listed virtual-corpus ids — the ids the
// items hold as if every previously enqueued event were already applied,
// which is exactly what they would be under one-at-a-time application. An id
// denoting a still-pending add cancels it in place (both events annihilate);
// the rest are rewritten to live-index ids and compacted out at the next
// flush. Rejects out-of-range ids, duplicates, and removing the entire
// (virtual) corpus, leaving the log unchanged.
func (l *Log) Remove(ids []int) error {
	if len(ids) == 0 {
		return fmt.Errorf("mutlog: Remove with no ids")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	live := l.liveN - len(l.removed) // surviving live count
	virtual := live + l.aliveAdds
	if len(ids) >= virtual {
		return fmt.Errorf("mutlog: removing %d of %d items would empty the corpus", len(ids), virtual)
	}
	sortedIDs := make([]int, len(ids))
	copy(sortedIDs, ids)
	sort.Ints(sortedIDs)
	for i, id := range sortedIDs {
		if id < 0 || id >= virtual {
			return fmt.Errorf("mutlog: item id %d out of range [0,%d)", id, virtual)
		}
		if i > 0 && sortedIDs[i-1] == id {
			return fmt.Errorf("mutlog: duplicate item id %d", id)
		}
	}

	// Translate every id against the same frozen snapshot (the ids all refer
	// to one virtual corpus, like a RemoveItems list), then apply.
	var liveIDs []int // live-index ids to remove
	var cancels []int // addRows indexes to cancel
	var aliveIdx []int
	for _, id := range sortedIDs {
		if id < live {
			liveIDs = append(liveIDs, nthSurvivor(l.removed, id))
			continue
		}
		if aliveIdx == nil {
			aliveIdx = make([]int, 0, l.aliveAdds)
			for i, ok := range l.addAlive {
				if ok {
					aliveIdx = append(aliveIdx, i)
				}
			}
		}
		cancels = append(cancels, aliveIdx[id-live])
	}
	// Write-ahead: journal the virtual-corpus ids exactly as validated.
	if err := l.journalRemoveLocked(sortedIDs); err != nil {
		return err
	}
	prev := l.pendingLocked()
	if len(liveIDs) > 0 {
		l.removed = mergeSorted(l.removed, liveIDs)
	}
	for _, i := range cancels {
		l.cancelRowLocked(i)
	}
	l.clearIfEmptyLocked()
	l.armLocked(prev)
	l.maybeSizeFlushLocked()
	return nil
}

// Cancel annihilates one still-pending add by handle — sugar for Remove of
// its virtual id, under the same never-empty rule: like Remove, it refuses
// to shrink the virtual corpus to zero (a batch whose pending removals
// outnumber the index could otherwise never be applied). It also fails if
// the handle was already flushed (use Remove with the resolved id),
// cancelled, or is unknown.
func (l *Log) Cancel(h Handle) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if int(h) < 0 || int(h) >= len(l.handles) {
		return fmt.Errorf("mutlog: unknown handle %d", h)
	}
	switch l.handles[h].state {
	case handleLive:
		return fmt.Errorf("mutlog: handle %d already flushed (id %d)", h, l.handles[h].pos)
	case handleDead:
		return fmt.Errorf("mutlog: handle %d already cancelled or removed", h)
	}
	if l.liveN-len(l.removed)+l.aliveAdds <= 1 {
		return fmt.Errorf("mutlog: cancelling handle %d would empty the corpus", h)
	}
	// Journal the cancellation as the Remove it is sugar for — by the
	// add's current virtual-corpus id, never by handle number (handle
	// numbering restarts in a fresh log, virtual ids replay exactly).
	pos := l.handles[h].pos
	vid := l.liveN - len(l.removed)
	for i := 0; i < pos; i++ {
		if l.addAlive[i] {
			vid++
		}
	}
	if err := l.journalRemoveLocked([]int{vid}); err != nil {
		return err
	}
	l.cancelRowLocked(pos)
	l.clearIfEmptyLocked()
	return nil
}

// cancelRowLocked annihilates the pending add at addRows index i.
func (l *Log) cancelRowLocked(i int) {
	l.addAlive[i] = false
	l.aliveAdds--
	l.handles[l.addHandle[i]].state = handleDead
	l.stats.Cancelled++
}

// Resolve reports the live-index id currently assigned to a handle. ok is
// false while the add is pending, after it was cancelled, and after a
// flushed removal deleted it.
func (l *Log) Resolve(h Handle) (id int, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if int(h) < 0 || int(h) >= len(l.handles) || l.handles[h].state != handleLive {
		return -1, false
	}
	return l.handles[h].pos, true
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.PendingAdds = l.aliveAdds
	st.PendingRemoves = len(l.removed)
	st.PendingEvents = st.PendingAdds + st.PendingRemoves
	st.FlushedEvents = st.FlushedAdds + st.FlushedRemoves
	return st
}

// Flush applies the pending batch now: at most one AddItems plus one
// RemoveItems under a single Applier.Mutate — one drain, one generation
// tick. An empty net batch returns nil without touching the applier. On
// error the unapplied events stay pending (the live index is unchanged per
// the ItemMutator error-atomicity contract) and a later Flush retries them.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.notedFlushLocked()
}

// notedFlushLocked runs flushLocked and records the outcome in
// Stats.LastFlushErr (set on failure, cleared on any success) so callers
// that swallow the error — the background flusher, the size trigger —
// still leave the cause visible.
func (l *Log) notedFlushLocked() error {
	err := l.flushLocked()
	l.stats.LastFlushErr = err
	return err
}

// Close stops the background flusher, applies any pending batch, and marks
// the log closed (enqueues fail with ErrClosed; Resolve and Stats keep
// working). It returns the final flush's error, with the pending events
// retained for inspection through Stats.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	<-l.done
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.notedFlushLocked()
}

// pendingLocked is the pending event count the flush policy watches.
func (l *Log) pendingLocked() int { return l.aliveAdds + len(l.removed) }

// armLocked starts the staleness clock when the batch gains its first event.
// Suppressed during Replay: recorded flush markers, not wall-clock deadlines,
// decide when a replayed batch applies.
func (l *Log) armLocked(prevPending int) {
	if l.replaying || l.maxDelay <= 0 || prevPending > 0 || l.pendingLocked() == 0 {
		return
	}
	l.deadline = time.Now().Add(l.maxDelay)
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// maybeSizeFlushLocked applies the MaxEvents trigger. Apply errors are
// counted (FlushErrors) and retried by a later flush rather than surfaced
// through the enqueue call, whose own error reports enqueue validity only.
func (l *Log) maybeSizeFlushLocked() {
	if l.replaying || l.maxEvents <= 0 || l.pendingLocked() < l.maxEvents {
		return
	}
	if err := l.notedFlushLocked(); err != nil {
		l.stats.FlushErrors++
	}
}

// clearIfEmptyLocked resets the batch buffers once cancellations annihilate
// every pending event, so a fully-cancelled batch leaves no garbage and no
// armed deadline behind.
func (l *Log) clearIfEmptyLocked() {
	if l.pendingLocked() == 0 {
		l.clearBatchLocked()
	}
}

// clearBatchLocked drops the pending buffers (handle table stays; flushed
// and dead handles outlive batches).
func (l *Log) clearBatchLocked() {
	l.addRows, l.addHandle, l.addAlive = nil, nil, nil
	l.aliveAdds = 0
	l.removed = nil
	l.deadline = time.Time{}
}

// flushLocked collapses and applies the pending batch; see Flush.
func (l *Log) flushLocked() error {
	m, r := l.aliveAdds, len(l.removed)
	if m == 0 && r == 0 {
		if len(l.addRows) > 0 {
			l.clearBatchLocked()
		}
		l.stats.SkippedFlushes++
		return nil
	}
	if got := l.applier.NumItems(); got != l.liveN {
		return fmt.Errorf("mutlog: live index has %d items but the log tracked %d — the index was mutated outside the log", got, l.liveN)
	}
	var addMat *mat.Matrix
	var alivePos []int // addRows index per applied row, in enqueue order
	if m > 0 {
		addMat = mat.New(m, l.addCols)
		alivePos = make([]int, 0, m)
		for i, row := range l.addRows {
			if !l.addAlive[i] {
				continue
			}
			copy(addMat.Row(len(alivePos)), row)
			alivePos = append(alivePos, i)
		}
	}
	removed := l.removed
	base := -1
	err := l.applier.Mutate(func(mut mips.ItemMutator) error {
		// Adds first: removal ids are live-index ids and appends never
		// disturb them, while add-first keeps a remove-everything-then-
		// revive batch inside RemoveItems' never-empty rule.
		if addMat != nil {
			ids, err := mut.AddItems(addMat)
			if err != nil {
				return err
			}
			base = ids[0]
		}
		if r > 0 {
			return mut.RemoveItems(removed)
		}
		return nil
	})
	removesApplied := err == nil && r > 0
	if removesApplied {
		// Renumber the handles resolved by earlier flushes through the
		// compaction (before this flush's own adds are resolved below, so
		// they are not shifted twice). Only the live subset is walked;
		// handles killed here drop out of it.
		w := 0
		for _, hi := range l.liveHandles {
			h := &l.handles[hi]
			before := mips.RemovedBefore(removed, h.pos)
			if before < len(removed) && removed[before] == h.pos {
				h.state = handleDead
				continue
			}
			h.pos -= before
			l.liveHandles[w] = hi
			w++
		}
		l.liveHandles = l.liveHandles[:w]
	}
	if base >= 0 {
		// The adds landed (even if a subsequent remove then failed, which
		// only a solver bug can cause): resolve their handles and retire
		// them from the pending batch so a retry cannot double-apply.
		shift := 0
		if removesApplied {
			shift = r // removes applied after the adds; every removed id < base
		}
		for p, i := range alivePos {
			hi := l.addHandle[i]
			l.handles[hi] = handleState{state: handleLive, pos: base + p - shift}
			l.liveHandles = append(l.liveHandles, hi)
		}
		l.addRows, l.addHandle, l.addAlive, l.aliveAdds = nil, nil, nil, 0
		l.liveN = base + m
		l.stats.FlushedAdds += int64(m)
	}
	if err != nil {
		return err
	}
	if r > 0 {
		l.liveN -= r
		l.stats.FlushedRemoves += int64(r)
	}
	l.stats.Flushes++
	l.clearBatchLocked()
	// The apply succeeded: advance the applied-seq watermark past every
	// event this flush consumed, then record the marker. The watermark
	// moves even if the marker write fails — in-memory state (and any
	// snapshot taken from it) must reflect what the index now holds; the
	// journal is what broke, and the error (plus Stats.JournalErrors) says
	// it needs replacing with a fresh snapshot.
	if err := l.journalMarkerLocked(); err != nil {
		l.stats.JournalErrors++
		return err
	}
	return nil
}

// flusher is the MaxDelay staleness enforcer: it wakes when a batch starts,
// sleeps until the batch's deadline, and applies it. A failed apply retries
// with capped exponential backoff (the events stay pending): MaxDelay
// doubling per consecutive failure up to one second (or MaxDelay itself if
// configured larger), jittered ±12.5% so replicas sharing a broken backing
// store don't retry in lockstep. The streak resets once a flush succeeds or
// a fresh batch arms.
func (l *Log) flusher() {
	defer close(l.done)
	rng := uint64(0x9e3779b97f4a7c15)
	for {
		select {
		case <-l.stop:
			return
		case <-l.kick:
		}
		streak := 0
		for {
			l.mu.Lock()
			if l.closed || l.pendingLocked() == 0 {
				l.mu.Unlock()
				break
			}
			wait := time.Until(l.deadline)
			if wait <= 0 {
				err := l.notedFlushLocked()
				if err != nil {
					l.stats.FlushErrors++
					streak++
					l.stats.Retries++
				}
				l.mu.Unlock()
				if err == nil {
					break
				}
				wait = retryWait(l.maxDelay, streak, &rng)
			} else {
				l.mu.Unlock()
			}
			select {
			case <-l.stop:
				return
			case <-time.After(wait):
			}
		}
	}
}

// retryWait is the flusher's backoff schedule: for the streak-th consecutive
// failed apply (streak ≥ 1) it returns MaxDelay·2^(streak−1) capped at one
// second — or at MaxDelay itself when that is configured larger — with a
// ±12.5% multiplicative jitter drawn from an xorshift generator (no global
// rand dependency; the exact sequence is irrelevant, only its spread).
func retryWait(maxDelay time.Duration, streak int, rng *uint64) time.Duration {
	lim := time.Second
	if maxDelay > lim {
		lim = maxDelay
	}
	wait := maxDelay
	for i := 1; i < streak && wait < lim; i++ {
		wait *= 2
	}
	if wait > lim {
		wait = lim
	}
	*rng ^= *rng << 13
	*rng ^= *rng >> 7
	*rng ^= *rng << 17
	return wait - wait/8 + time.Duration(*rng%uint64(wait/4+1))
}

// nthSurvivor returns the v-th (0-based) live id not present in the
// ascending removed list — the inverse of the positional-compaction
// renumbering. It iterates g ← v + |removed ≤ g| to its least fixpoint,
// which is always a survivor.
func nthSurvivor(removed []int, v int) int {
	g := v
	for {
		next := v + sort.SearchInts(removed, g+1)
		if next == g {
			return g
		}
		g = next
	}
}

// mergeSorted merges two ascending id lists (duplicates cannot occur: new
// ids are survivors, never already-removed ids).
func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
