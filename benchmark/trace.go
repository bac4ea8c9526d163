package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/persist"
	"optimus/internal/shard"
	"optimus/internal/topk"
	"optimus/internal/transport"
)

// Span names. A span brackets one call into a layer's public function, taken
// from outside that layer by the decorators below.
const (
	spRequest  = "request"        // due time → response, one per served request
	spBatch    = "shard.query"    // Sharded.Query/QueryCtx as the batcher calls it
	spWorker   = "worker.query"   // shard.Worker.Query, one per shard and batch
	spConn     = "transport.call" // transport.Conn.Call under a worker
	spFlush    = "mutlog.flush"   // enqueue + Log.Flush on the writer
	spMutate   = "shard.mutate"   // Sharded.AddItems/RemoveItems under a flush
	spProbe    = "probe"          // the fixed-solver probes of a batch workload's traced run
	spPass     = "pass"           // one batch pass
	spOptimus  = "optimus.run"    // core.Optimus.Run inside a pass
	spBuild    = "solver.build"   // standalone Solver.Build
	spQueryAll = "solver.queryall"
	spSnapshot = "persist.save"
	spRestore  = "persist.load"
)

// span is one traced interval. Parent is the id of the span that caused it
// (0 for a root), Req the request (or pass) whose work it is, Count the
// span's work counter: users in a batch or worker call, bytes on a conn
// call, events in a flush.
type span struct {
	ID     int32
	Parent int32
	Req    int32
	Name   string
	Shard  int16
	Start  int64 // ns since the tracer's epoch
	End    int64
	Count  int64
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans into a preallocated buffer; nothing is written out
// until the run ends. With recording off every call is one atomic load, so a
// traced build can measure its own overhead by toggling it.
type tracer struct {
	epoch   time.Time
	on      atomic.Bool
	next    atomic.Int32
	spans   []span
	dropped atomic.Int64

	// The serving dispatcher runs one batch at a time and the coordinator
	// calls each shard's worker once per batch, so "the span that caused
	// this call" is a single slot per level.
	curBatch  atomic.Int32
	curWorker [64]atomic.Int32
	curFlush  atomic.Int32
}

func newTracer(capacity int) *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, capacity)}
	t.on.Store(true)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// begin opens a span and returns its id, or 0 when recording is off or the
// buffer is full.
func (t *tracer) begin(name string, parent int32, shardID int) int32 {
	if t == nil || !t.on.Load() {
		return 0
	}
	id := t.next.Add(1)
	if int(id) > len(t.spans) {
		t.dropped.Add(1)
		return 0
	}
	t.spans[id-1] = span{ID: id, Parent: parent, Name: name, Shard: int16(shardID), Start: t.now()}
	return id
}

func (t *tracer) end(id int32, count int64) {
	if id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = t.now()
	s.Count = count
}

// add records an already-finished span (request spans are rebuilt from the
// load generator's arrays after a phase, off the hot path).
func (t *tracer) add(s span) int32 {
	id := t.next.Add(1)
	if int(id) > len(t.spans) {
		t.dropped.Add(1)
		return 0
	}
	s.ID = id
	t.spans[id-1] = s
	return id
}

// recorded returns the finished spans in id order.
func (t *tracer) recorded() []span {
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	out := make([]span, 0, n)
	for _, s := range t.spans[:n] {
		if s.End >= s.Start && s.ID != 0 {
			out = append(out, s)
		}
	}
	return out
}

// tracedSolver decorates the sharded composite handed to serving.New. The
// embedded *shard.Sharded forwards every optional interface the server and
// the mutation log probe for (Sized, ItemMutator, Persister, PartialQuerier,
// the wave-schedule methods), so the server sees the same capabilities with
// and without tracing; only the calls below are bracketed.
type tracedSolver struct {
	*shard.Sharded
	tr *tracer
}

func (s *tracedSolver) Query(userIDs []int, k int) ([][]topk.Entry, error) {
	id := s.tr.begin(spBatch, 0, -1)
	s.tr.curBatch.Store(id)
	res, err := s.Sharded.Query(userIDs, k)
	s.tr.curBatch.Store(0)
	s.tr.end(id, int64(len(userIDs)))
	return res, err
}

func (s *tracedSolver) QueryCtx(ctx context.Context, userIDs []int, k int, opts mips.QueryOptions) ([][]topk.Entry, error) {
	id := s.tr.begin(spBatch, 0, -1)
	s.tr.curBatch.Store(id)
	res, err := s.Sharded.QueryCtx(ctx, userIDs, k, opts)
	s.tr.curBatch.Store(0)
	s.tr.end(id, int64(len(userIDs)))
	return res, err
}

func (s *tracedSolver) AddItems(items *mat.Matrix) ([]int, error) {
	id := s.tr.begin(spMutate, s.tr.curFlush.Load(), -1)
	ids, err := s.Sharded.AddItems(items)
	s.tr.end(id, int64(items.Rows()))
	return ids, err
}

func (s *tracedSolver) RemoveItems(ids []int) error {
	id := s.tr.begin(spMutate, s.tr.curFlush.Load(), -1)
	err := s.Sharded.RemoveItems(ids)
	s.tr.end(id, int64(len(ids)))
	return err
}

// tracedWorker decorates one shard's worker (the embedded interface forwards
// the rest of the contract unchanged).
type tracedWorker struct {
	shard.Worker
	si int
	tr *tracer
}

func (w *tracedWorker) Query(ctx context.Context, userIDs []int, k int, floors []float64, board *topk.FloorBoard) ([][]topk.Entry, error) {
	id := w.tr.begin(spWorker, w.tr.curBatch.Load(), w.si)
	w.tr.curWorker[w.si].Store(id)
	res, err := w.Worker.Query(ctx, userIDs, k, floors, board)
	w.tr.curWorker[w.si].Store(0)
	w.tr.end(id, int64(len(userIDs)))
	return res, err
}

// tracedDialer wraps a WorkerDialer so every dialed worker is decorated.
func tracedDialer(dial shard.WorkerDialer, tr *tracer) shard.WorkerDialer {
	return func(si int, section []byte) (shard.Worker, error) {
		w, err := dial(si, section)
		if err != nil {
			return nil, err
		}
		return &tracedWorker{Worker: w, si: si, tr: tr}, nil
	}
}

// directDialer boots a shard's worker in-process from its persist section —
// what transport.NewHandler does on the far side of a wire, minus the wire.
// The traced serve-churn run uses it to get per-shard spans; the untraced
// run leaves Config.WorkerDialer nil.
func directDialer(si int, section []byte) (shard.Worker, error) {
	ls, err := persist.LoadAny(bytes.NewReader(section))
	if err != nil {
		return nil, fmt.Errorf("booting direct worker %d: %w", si, err)
	}
	solver, ok := ls.(mips.Solver)
	if !ok {
		return nil, fmt.Errorf("booting direct worker %d: section holds a %T, not a solver", si, ls)
	}
	return shard.NewWorker(solver), nil
}

// tracedConn decorates one loopback conn (installed through Loopback.Wrap).
type tracedConn struct {
	transport.Conn
	si int
	tr *tracer
}

func (c *tracedConn) Call(ctx context.Context, op transport.Op, req []byte) ([]byte, error) {
	id := c.tr.begin(spConn, c.tr.curWorker[c.si].Load(), c.si)
	reply, err := c.Conn.Call(ctx, op, req)
	c.tr.end(id, int64(1+len(req)+len(reply)))
	return reply, err
}

// addRequests turns an open-loop phase into request spans and links each
// batch span to the longest-waiting request it answered. A request's batch is
// the last batch that finished before the request's response was observed:
// the dispatcher runs one batch at a time and replies right after the solver
// returns. It returns, per request, the index into batches of its batch (-1
// when none qualifies).
func (t *tracer) addRequests(start time.Time, at, done []time.Duration, status []uint8, batches []span) []int {
	base := t.since(start)
	ends := make([]int64, len(batches))
	for i, b := range batches {
		ends[i] = b.End
	}
	owner := make([]int, len(at))
	parentOf := make(map[int32]int32) // batch id → request span id
	waited := make(map[int32]int64)   // batch id → that request's start
	for i := range at {
		owner[i] = -1
		if status[i] == stShed {
			continue
		}
		s := span{Name: spRequest, Shard: -1, Start: base + int64(at[i]), End: base + int64(done[i]), Count: 1}
		id := t.add(s)
		if id == 0 {
			continue
		}
		t.spans[id-1].Req = id
		bi := sort.Search(len(ends), func(j int) bool { return ends[j] > s.End }) - 1
		if bi < 0 || batches[bi].Start < s.Start {
			continue
		}
		owner[i] = bi
		bid := batches[bi].ID
		if w, ok := waited[bid]; !ok || s.Start < w {
			waited[bid], parentOf[bid] = s.Start, id
		}
	}
	for bid, rid := range parentOf {
		t.spans[bid-1].Parent = rid
	}
	return owner
}

// propagateReq gives every span the request id of its root ancestor.
func propagateReq(spans []span) {
	byID := make(map[int32]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	var root func(i int) int32
	root = func(i int) int32 {
		s := &spans[i]
		if s.Req != 0 {
			return s.Req
		}
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			s.Req = root(p)
		} else {
			s.Req = s.ID
		}
		return s.Req
	}
	for i := range spans {
		root(i)
	}
}

// selfTimes returns, per span id, the span's duration minus the part of it
// that its child spans cover (children may overlap: shards run in parallel).
func selfTimes(spans []span) map[int32]time.Duration {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int32]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered, hi int64
		hi = s.Start
		for _, c := range kids {
			lo, end := c.Start, c.End
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// checkSpans verifies the trace is a forest: every parent exists and encloses
// its child.
func checkSpans(spans []span) error {
	byID := make(map[int32]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s): parent %d does not exist", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] is not enclosed by parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

func spansNamed(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func durationsMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.End-s.Start) / 1e6
	}
	return out
}

// spanJSON is the on-disk form of a span.
type spanJSON struct {
	ID      int32            `json:"id"`
	Parent  int32            `json:"parent"`
	Req     int32            `json:"req"`
	Name    string           `json:"name"`
	StartNs int64            `json:"start_ns"`
	EndNs   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts"`
}

// countLabel names a span's work counter by span kind.
func countLabel(name string) string {
	switch name {
	case spConn:
		return "bytes"
	case spFlush:
		return "events"
	case spMutate:
		return "items"
	case spRequest:
		return "requests"
	default:
		return "users"
	}
}

// toSpanJSON renders one workload's spans for the spans file. base is added
// to every id so ids stay unique across the workloads of a full run.
func toSpanJSON(workload string, spans []span, base int32) []spanJSON {
	out := make([]spanJSON, len(spans))
	for i, s := range spans {
		counts := map[string]int64{countLabel(s.Name): s.Count}
		if s.Shard >= 0 {
			counts["shard"] = int64(s.Shard)
		}
		parent := s.Parent
		if parent != 0 {
			parent += base
		}
		out[i] = spanJSON{ID: s.ID + base, Parent: parent, Req: s.Req + base, Name: workload + "/" + s.Name,
			StartNs: s.Start, EndNs: s.End, Counts: counts}
	}
	return out
}
