package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"optimus/internal/dataset"
	"optimus/internal/lemp"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/mutlog"
	"optimus/internal/serving"
	"optimus/internal/shard"
	"optimus/internal/topk"
	"optimus/internal/transport"
)

// serveState is one serve-* run: the corpus, the sharded composite behind a
// serving.Server, the load generators' inputs and — for serve-churn — the
// mutation log and the writer's bookkeeping.
type serveState struct {
	o     runOpts
	sz    sizing
	res   *runResult
	churn bool
	tr    *tracer // nil on the untraced run

	m      *dataset.Model
	pool   *mat.Matrix // serve-churn: arrival stream
	*stack             // the stack set-up kept
	rng    *rand.Rand
	pop    *popularity
	aud    *auditor
	wr     *writer
}

// stack is one built composite + server; set-up builds several and keeps the
// last.
type stack struct {
	lb  *transport.Loopback // serve-wired only
	sh  *shard.Sharded
	srv *serving.Server
	log *mutlog.Log // serve-churn only
}

// shardConfig is the composite both serve workloads use: S = 4, ByNorm, LEMP
// sub-solvers, auto schedule. serve-wired puts every worker behind the
// loopback transport; serve-churn keeps them in-process (the traced run dials
// them in-process too, to get per-shard spans).
func (st *serveState) shardConfig() (shard.Config, *transport.Loopback) {
	cfg := shard.Config{
		Shards:      shards,
		Partitioner: shard.ByNorm(),
		Factory:     func() mips.Solver { return lemp.New(lemp.Config{Seed: lempSeed}) },
	}
	if st.churn {
		if st.tr != nil {
			cfg.WorkerDialer = tracedDialer(directDialer, st.tr)
		}
		return cfg, nil
	}
	lb := transport.NewLoopback()
	cfg.WorkerDialer = lb.Dialer()
	if st.tr != nil {
		lb.Wrap = func(si int, c transport.Conn) transport.Conn { return &tracedConn{Conn: c, si: si, tr: st.tr} }
		cfg.WorkerDialer = tracedDialer(cfg.WorkerDialer, st.tr)
	}
	return cfg, lb
}

// solverFor wraps the composite for serving.New: bare when untraced.
func (st *serveState) solverFor(sh *shard.Sharded) mips.Solver {
	if st.tr == nil {
		return sh
	}
	return &tracedSolver{Sharded: sh, tr: st.tr}
}

// build assembles composite, server and (serve-churn) log over st.m.
func (st *serveState) build() (*stack, error) {
	cfg, lb := st.shardConfig()
	sh := shard.New(cfg)
	if err := sh.Build(st.m.Users, st.m.Items); err != nil {
		return nil, err
	}
	srv, err := serving.New(st.solverFor(sh), serving.Config{})
	if err != nil {
		return nil, err
	}
	s := &stack{lb: lb, sh: sh, srv: srv}
	if st.churn {
		// Explicit flushes only: no size trigger, no background flusher.
		if s.log, err = srv.Log(mutlog.Config{MaxEvents: -1, MaxDelay: -1}); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return s, nil
}

func runServe(o runOpts) (*runResult, error) {
	st := &serveState{o: o, sz: o.sizing(), res: newResult(o), churn: o.workload.Name == "serve-churn",
		rng: rand.New(rand.NewSource(o.seed*131 + 17))}
	if o.traced {
		st.tr = newTracer(int(o.seconds*60000) + 1<<16)
	}
	if err := st.setup(); err != nil {
		return nil, err
	}
	defer st.srv.Close()
	var err error
	if o.traced {
		err = st.traced()
	} else {
		err = st.measured()
	}
	if st.tr != nil {
		st.res.Spans = st.tr.recorded()
		propagateReq(st.res.Spans)
	}
	return st.res, err
}

// setup generates the corpus and builds the serving stack several times;
// setup_s is the median. The heap readings that give index_mb (forced
// collections) sit between the timed segments, not inside them.
func (st *serveState) setup() error {
	// The writer needs flushAdds fresh rows per tick; size the arrival pool
	// for every tick the run can make, with slack.
	poolItems := 0
	if st.churn {
		poolItems = flushAdds * (int(st.o.seconds/st.sz.flushEvery.Seconds()) + 16)
	}
	var setups, heaps []float64
	for spent := time.Duration(0); st.sz.again(len(setups), st.sz.setupReps, spent); {
		if st.stack != nil {
			// Drop the previous repetition's stack (and, through it, its
			// corpus) before the heap is read again.
			st.srv.Close()
			st.stack = nil
		}
		t0 := time.Now()
		m, err := generate(st.o, 0, 0)
		if err != nil {
			return err
		}
		st.m = m
		if st.churn {
			p, err := generate(st.o, 977, poolItems)
			if err != nil {
				return err
			}
			st.pool = p.Items
		}
		wall := time.Since(t0)
		before := liveHeapMB()
		t0 = time.Now()
		if st.stack, err = st.build(); err != nil {
			return err
		}
		wall += time.Since(t0)
		heaps = append(heaps, liveHeapMB()-before)
		setups = append(setups, wall.Seconds())
		spent += wall
	}
	st.res.set("index_mb", heaps...)
	st.res.set("setup_s", setups...)
	st.res.Notes["schedule"] = st.sh.ActiveScheduleName()

	st.pop = newPopularity(st.rng, st.m.Users.Rows(), zipfS)
	var err error
	st.aud, err = newAuditor(st.m.Users, st.m.Items, auditSet(st.rng, st.pop, st.m.Users.Rows(), st.sz.audit))
	if st.churn {
		st.wr = &writer{log: st.log, pool: st.pool, tr: st.tr, n: st.m.Items.Rows(),
			rng: rand.New(rand.NewSource(st.o.seed*17 + 29))}
	}
	return err
}

func (st *serveState) query(user int) ([]topk.Entry, error) {
	return st.srv.Query(context.Background(), user, K)
}

// check is the per-response check. While the corpus is fixed every audited
// user's response is compared with its precomputed mips.Naive answer; under
// churn the corpus moves, so responses are only checked for shape and the
// exact check happens against the writer's tracked corpus after the last
// flush (verifyAfterChurn).
func (st *serveState) check(user int, got []topk.Entry) bool {
	if !st.churn {
		return st.aud.check(user, got)
	}
	if len(got) != K {
		return false
	}
	for r := 1; r < K; r++ {
		if got[r].Score > got[r-1].Score {
			return false
		}
	}
	return true
}

func (st *serveState) secs(frac float64) time.Duration {
	return time.Duration(frac * st.o.seconds * float64(time.Second))
}

// open runs one open-loop phase at rate for dur — beside the writer on
// serve-churn — and tallies it when counted.
func (st *serveState) open(rate float64, dur time.Duration, counted bool) *openResult {
	at := poissonSchedule(st.rng, rate, dur)
	users := make([]int, len(at))
	for i := range users {
		users[i] = st.pop.draw()
	}
	var r *openResult
	st.besideWriter(counted, dur, func() { r = runOpenLoop(at, users, dur, poolCap, st.query, st.check) })
	if counted {
		a, f, w, _ := r.tally(deadlineMs)
		st.res.Attempted += a
		st.res.Failed += f
		st.res.Wrong += w
	}
	return r
}

// besideWriter runs load with — on serve-churn, when on — the writer ticking
// beside it for dur, and returns when both are done.
func (st *serveState) besideWriter(on bool, dur time.Duration, load func()) {
	var wg sync.WaitGroup
	if st.churn && on {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.wr.run(int(dur/st.sz.flushEvery), st.sz.flushEvery)
		}()
	}
	load()
	wg.Wait()
}

// closed runs the closed loop for dur, beside the writer on serve-churn.
func (st *serveState) closed(dur time.Duration) *closedResult {
	draw := func(rng *rand.Rand) func() int { return st.pop.clone(rng).draw }
	seed := st.o.seed*53 + int64(st.rng.Intn(1<<20))
	var r *closedResult
	st.besideWriter(true, dur, func() { r = runClosedLoop(seed, clients, dur, draw, st.query, st.check) })
	st.res.Attempted += r.completions()
	st.res.Failed += r.errors + r.wrong
	st.res.Wrong += r.wrong
	return r
}

// rounds is how many times the untraced run cycles through its phases. The
// reference box's capacity swings by up to 2× for seconds at a time, so each
// metric samples the whole run instead of one contiguous stretch of it.
const rounds = 3

// segment returns the length of one round's share of a phase: frac of the
// run, split over the rounds, cut to whole windows (at least one).
func (st *serveState) segment(frac float64) time.Duration {
	n := int(frac * st.o.seconds * float64(time.Second) / rounds / float64(st.sz.window))
	if n < 1 {
		n = 1
	}
	return time.Duration(n) * st.sz.window
}

// measured is the untraced run: a warm-up, then rounds of open loop at
// rateRef, (serve-wired) open loop at rateHi and the closed loop — beside the
// writer throughout on serve-churn — and finally restore.
func (st *serveState) measured() error {
	res := st.res
	fr := struct{ warm, ref, hi, closed float64 }{0.06, 0.38, 0.16, 0.40}
	if st.churn {
		fr.ref, fr.hi = 0.54, 0
	}
	st.open(rateRef, st.secs(fr.warm), false)

	var p50, p99, hp99, rates []float64
	for r := 0; r < rounds; r++ {
		for _, w := range st.open(rateRef, st.segment(fr.ref), true).windows(st.sz.window) {
			p50 = append(p50, w.p50)
			p99 = append(p99, w.p99)
		}
		if fr.hi > 0 {
			for _, w := range st.open(rateHi, st.segment(fr.hi), true).windows(st.sz.window) {
				hp99 = append(hp99, w.p99)
			}
		}
		rates = append(rates, st.closed(st.segment(fr.closed)).windowRates(st.sz.window)...)
	}
	// Quiet-machine estimators (see README, Noise): each row reports the
	// run's best window.
	res.setAs("lat_p50_ms", minOf(p50), p50...)
	res.setAs("lat_p99_ms", minOf(p99), p99...)
	res.setAs("answers_per_s", maxOf(rates), rates...)
	if fr.hi > 0 {
		res.setAs("serving.lat_hi_p99_ms", minOf(hp99), hp99...)
	}
	if st.churn {
		st.wr.report(res)
		if err := st.verifyAfterChurn(); err != nil {
			return err
		}
	}
	snap, err := st.restore(st.sz.restoreMin)
	res.setAs("restore_s", minOf(snap.loads), snap.loads...)
	return err
}

// snapshotTimes is what restore measured: the snapshot's size, the time to
// save it and the times to load it back, in seconds.
type snapshotTimes struct {
	bytes int
	save  float64
	loads []float64
}

// restore snapshots the live server once and restores it n times into fresh
// composites, checking the last one's answers.
func (st *serveState) restore(n int) (snap snapshotTimes, err error) {
	var buf bytes.Buffer
	id := st.tr.begin(spSnapshot, 0, -1)
	t0 := time.Now()
	if err := st.srv.Snapshot(&buf); err != nil {
		return snap, err
	}
	snap.save = time.Since(t0).Seconds()
	snap.bytes = buf.Len()
	st.tr.end(id, int64(buf.Len()))
	for r := 0; r < n; r++ {
		cfg, _ := st.shardConfig()
		id := st.tr.begin(spRestore, 0, -1)
		t0 := time.Now()
		srv, err := serving.Restore(bytes.NewReader(buf.Bytes()), shard.New(cfg), serving.Config{})
		if err != nil {
			return snap, fmt.Errorf("restore %d: %w", r, err)
		}
		snap.loads = append(snap.loads, time.Since(t0).Seconds())
		st.tr.end(id, int64(buf.Len()))
		if r == n-1 {
			err = st.checkRestored(srv)
		}
		srv.Close()
		if err != nil {
			return snap, err
		}
	}
	return snap, nil
}

// checkRestored asks a restored server for a few audited users' answers.
func (st *serveState) checkRestored(srv *serving.Server) error {
	for _, u := range auditedIDs(st.aud, 32) {
		got, err := srv.Query(context.Background(), u, K)
		if err != nil {
			return fmt.Errorf("restored server: %w", err)
		}
		st.res.tally(1, st.aud.check(u, got))
	}
	return nil
}

// verifyAfterChurn re-derives the corpus from the writer's event history,
// recomputes mips.Naive answers for a user sample over it, and compares them
// with what the live composite answers now. The auditor is re-pointed at the
// post-churn corpus, so the restore check that follows uses it too.
func (st *serveState) verifyAfterChurn() error {
	if st.wr.err != nil {
		return st.wr.err
	}
	corpus, err := st.wr.corpus(st.m.Items)
	if err != nil {
		return err
	}
	if got := st.sh.NumItems(); got != corpus.Rows() {
		return fmt.Errorf("after churn the composite holds %d items, the tracked corpus %d", got, corpus.Rows())
	}
	ids := sampleIDs(st.rng, st.m.Users.Rows(), st.sz.audit/3)
	if st.aud, err = newAuditor(st.m.Users, corpus, ids); err != nil {
		return err
	}
	got, err := st.sh.Query(ids, K)
	if err != nil {
		return err
	}
	st.res.audit(st.aud, ids, got)
	return nil
}

// writer is serve-churn's single writer: every tick it enqueues flushAdds
// adds and flushRems removes on the log and flushes, keeping the corpus size
// constant. Ticks are due on a fixed schedule and their number is fixed by
// the phase length, so the event stream is the same for equal seeds.
type writer struct {
	log  *mutlog.Log
	pool *mat.Matrix
	tr   *tracer
	rng  *rand.Rand
	n    int // corpus size, constant across ticks
	next int // next unused pool row

	flushMs []float64 // wall-clock of every enqueue + Flush
	flushes []span    // the same intervals on the tracer's clock
	removed [][]int   // per tick, for the corpus replay (tick t added pool rows [t·flushAdds, (t+1)·flushAdds))
	err     error     // first failed tick; the writer stops there
}

func (w *writer) run(ticks int, every time.Duration) {
	start := time.Now()
	for i := 0; i < ticks && w.err == nil; i++ {
		if wait := time.Duration(i)*every - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		w.err = w.tick()
	}
}

func (w *writer) tick() error {
	lo := w.next
	w.next += flushAdds
	add := w.pool.RowSlice(lo, w.next)
	rem := w.rng.Perm(w.n)[:flushRems]
	id := w.tr.begin(spFlush, 0, -1)
	if w.tr != nil {
		w.tr.curFlush.Store(id)
	}
	t0 := time.Now()
	_, err := w.log.Add(add)
	if err == nil {
		err = w.log.Remove(rem)
	}
	if err == nil {
		err = w.log.Flush()
	}
	wall := time.Since(t0)
	if w.tr != nil {
		w.tr.curFlush.Store(0)
		w.tr.end(id, flushAdds+flushRems)
		if id != 0 {
			w.flushes = append(w.flushes, w.tr.spans[id-1])
		}
	}
	if err != nil {
		return fmt.Errorf("serve-churn writer, tick %d: %w", len(w.removed), err)
	}
	w.flushMs = append(w.flushMs, msOf(wall))
	w.removed = append(w.removed, rem)
	return nil
}

// report files the write latency rows from the ticks made so far.
func (w *writer) report(res *runResult) {
	s := sortedCopy(w.flushMs)
	res.setAs("mutlog.write_p50_ms", quantileSorted(s, 0.50), s...)
	res.setAs("mutlog.write_p95_ms", quantileSorted(s, 0.95), s...)
}

// corpus replays the event history over the build-time items: each tick
// appends its adds, then removes its ids (all below the pre-tick size, so
// they name live items) and compacts.
func (w *writer) corpus(items *mat.Matrix) (*mat.Matrix, error) {
	rows := make([][]float64, items.Rows())
	for i := range rows {
		rows[i] = items.Row(i)
	}
	for t, rem := range w.removed {
		dead := make(map[int]bool, len(rem))
		for _, id := range rem {
			dead[id] = true
		}
		kept := rows[:0:0]
		for i, r := range rows {
			if !dead[i] {
				kept = append(kept, r)
			}
		}
		for i := t * flushAdds; i < (t+1)*flushAdds; i++ {
			kept = append(kept, w.pool.Row(i))
		}
		rows = kept
	}
	return mat.FromRows(rows)
}

// ---- traced run ----

// step is one traced open-loop phase with the spans it produced.
type step struct {
	rate    float64
	r       *openResult
	batches []span
	owner   []int // request → index into batches
	stats0  serving.Stats
	stats1  serving.Stats
}

func (st *serveState) tracedStep(rate float64, dur time.Duration, counted bool) *step {
	first := st.tr.next.Load()
	s := &step{rate: rate, stats0: st.srv.Stats()}
	s.r = st.open(rate, dur, counted)
	s.stats1 = st.srv.Stats()
	for _, sp := range st.tr.recorded() {
		if sp.ID > first && sp.Name == spBatch {
			s.batches = append(s.batches, sp)
		}
	}
	s.owner = st.tr.addRequests(s.r.start, s.r.at, s.r.done, s.r.status, s.batches)
	return s
}

// ok reports whether the step met the latency limit without shedding or
// leaving a backlog behind.
func (s *step) ok() bool {
	_, _, _, shed := s.r.tally(deadlineMs)
	lat := s.r.latencies()
	var lastDone time.Duration
	for _, d := range s.r.done {
		if d > lastDone {
			lastDone = d
		}
	}
	return shed == 0 && len(lat) > 0 && quantileSorted(lat, 0.99) <= latLimitMs &&
		msOf(lastDone-s.r.dur) <= latLimitMs
}

// traced is the per-layer run: the same stack with decorators recording
// spans, driven through a warm-up, the rate ladder (serve-wired) or the
// reference rate beside the writer (serve-churn), a closed loop with
// recording off then on, and the fan-out / wire probes.
func (st *serveState) traced() error {
	res := st.res
	st.tr.on.Store(false)
	st.open(rateRef, st.secs(0.05), false)
	st.tr.on.Store(true)

	var ref *step
	if st.churn {
		ref = st.tracedStep(rateRef, st.secs(0.5), true)
		st.wr.report(res)
		st.writeLayerRows()
	} else {
		var shed int64
		maxOK, failed := 0.0, false
		for _, rate := range ladder {
			if failed && rate > rateHi {
				break
			}
			s := st.tracedStep(rate, st.secs(0.09), rate == rateRef || rate == rateHi)
			if s.ok() && !failed {
				maxOK = rate
			} else {
				failed = true
			}
			switch rate {
			case rateRef:
				ref = s
				_, _, _, n := s.r.tally(deadlineMs)
				shed += n
			case rateHi:
				_, _, _, n := s.r.tally(deadlineMs)
				shed += n
				res.set("serving.lat_hi_p99_ms", quantileSorted(s.r.latencies(), 0.99))
			}
		}
		res.set("serving.max_ok_rps", maxOK)
		res.set("serving.shed", float64(shed))
	}
	st.stepRows(ref)

	// Closed loop with span recording off and on, alternating; the best
	// window of each side is compared, so a noisy stretch of the box does not
	// read as tracing overhead.
	var off, on []float64
	for i := 0; i < 2*rounds; i++ {
		st.tr.on.Store(i%2 == 1)
		rates := st.closed(st.segment(0.20)).windowRates(st.sz.window)
		if i%2 == 1 {
			on = append(on, rates...)
		} else {
			off = append(off, rates...)
		}
	}
	res.set("bench.trace_overhead_frac", 1-maxOf(on)/maxOf(off))

	if st.churn {
		if err := st.verifyAfterChurn(); err != nil {
			return err
		}
	}
	if err := st.fanoutProbes(); err != nil {
		return err
	}
	snap, err := st.restore(2)
	if err != nil {
		return err
	}
	res.set("persist.save_s", snap.save)
	res.set("persist.load_s", snap.loads...)
	res.set("persist.snapshot_bytes_per_item", float64(snap.bytes)/float64(st.sh.NumItems()))
	if d := st.tr.dropped.Load(); d > 0 {
		return fmt.Errorf("trace buffer overflowed: %d spans dropped", d)
	}
	return nil
}

// stepRows files the batcher, coordinator and wire rows from the reference
// step's spans.
func (st *serveState) stepRows(s *step) {
	res := st.res
	lat := s.r.latencies()
	res.set("serving.lat_p999_ms", quantileSorted(lat, 0.999))
	res.set("bench.gen_late_p99_ms", quantileSorted(s.r.lateness(), 0.99))
	if db := s.stats1.Batches - s.stats0.Batches; db > 0 {
		res.set("serving.batch_size_mean", float64(s.stats1.Requests-s.stats0.Requests)/float64(db))
	}
	var waits []float64
	for i, bi := range s.owner {
		if bi >= 0 {
			waits = append(waits, s.r.latencyMs(i)-msOf(s.batches[bi].dur()))
		}
	}
	sort.Float64s(waits)
	res.set("serving.queue_wait_p50_ms", quantileSorted(waits, 0.50))
	res.set("serving.queue_wait_p99_ms", quantileSorted(waits, 0.99))

	inStep := make(map[int32]bool, len(s.batches))
	var busy time.Duration
	for _, b := range s.batches {
		inStep[b.ID] = true
		busy += b.dur()
	}
	res.set("serving.solver_busy_frac", busy.Seconds()/s.r.dur.Seconds())

	spans := st.tr.recorded()
	self := selfTimes(spans)
	var workers, conns []span
	workerOf := make(map[int32][]span)
	for _, sp := range spans {
		if sp.Name == spWorker && inStep[sp.Parent] {
			workers = append(workers, sp)
			workerOf[sp.Parent] = append(workerOf[sp.Parent], sp)
		}
	}
	isWorker := make(map[int32]bool, len(workers))
	for _, w := range workers {
		isWorker[w.ID] = true
	}
	for _, sp := range spans {
		if sp.Name == spConn && isWorker[sp.Parent] {
			conns = append(conns, sp)
		}
	}
	var fanSelf, straggle, codecSelf []float64
	for _, b := range s.batches {
		fanSelf = append(fanSelf, msOf(self[b.ID]))
		ws := workerOf[b.ID]
		if len(ws) == 0 {
			continue
		}
		var sum, max time.Duration
		for _, w := range ws {
			sum += w.dur()
			if w.dur() > max {
				max = w.dur()
			}
		}
		if sum > 0 {
			straggle = append(straggle, float64(max)*float64(len(ws))/float64(sum))
		}
	}
	res.set("shard.query_batch_ms", median(durationsMs(s.batches)))
	res.set("shard.worker_query_ms", median(durationsMs(workers)))
	res.set("shard.fanout_self_ms", median(fanSelf))
	res.set("shard.straggler_ratio", median(straggle))
	if len(conns) > 0 {
		for _, w := range workers {
			codecSelf = append(codecSelf, msOf(self[w.ID]))
		}
		res.set("transport.conn_call_ms", median(durationsMs(conns)))
		res.set("transport.client_codec_self_ms", median(codecSelf))
	}
}

// writeLayerRows files the mutation-path rows of serve-churn's traced run.
func (st *serveState) writeLayerRows() {
	res, w := st.res, st.wr
	ls := st.log.Stats()
	res.set("mutlog.flushes", float64(ls.Flushes))
	if ls.Flushes > 0 {
		res.set("mutlog.events_per_flush", float64(ls.FlushedEvents)/float64(ls.Flushes))
	}
	ms := st.sh.MutationStats()
	if ls.Flushes > 0 {
		res.set("shard.dirty_per_flush", float64(ms.Dirty())/float64(ls.Flushes))
	}
	if ms.Dirty() > 0 {
		res.set("shard.patched_frac", float64(ms.Patches)/float64(ms.Dirty()))
	}
	// Per flush: the time inside Sharded.AddItems/RemoveItems, and the rest
	// of the flush — waiting for the in-flight batch to drain, plus the log's
	// own bookkeeping.
	spans := st.tr.recorded()
	inMutate := make(map[int32]time.Duration)
	for _, sp := range spansNamed(spans, spMutate) {
		inMutate[sp.Parent] += sp.dur()
	}
	batches := spansNamed(spans, spBatch)
	var mutate, drain, lag []float64
	for _, f := range w.flushes {
		mutate = append(mutate, msOf(inMutate[f.ID]))
		drain = append(drain, msOf(f.dur()-inMutate[f.ID]))
		// Generation lag: from the first enqueue to the first batch
		// dispatched against the new generation.
		bi := sort.Search(len(batches), func(j int) bool { return batches[j].Start >= f.End })
		if bi < len(batches) {
			lag = append(lag, float64(batches[bi].Start-f.Start)/1e6)
		}
	}
	res.set("shard.mutate_ms", median(mutate))
	res.set("serving.drain_wait_ms", median(drain))
	res.set("serving.gen_lag_p99_ms", quantileSorted(sortedCopy(lag), 0.99))
}

// fanoutProbes files the deterministic fan-out and wire counts and the
// overhead ratios: the live composite answers a fixed user subset directly
// (server idle), and so do an unsharded LEMP, an S = 1 composite and — on
// serve-wired — an in-process twin of the wired composite.
func (st *serveState) fanoutProbes() error {
	res := st.res
	st.tr.on.Store(false)
	defer st.tr.on.Store(true)
	// The subset has its own random source: how many draws the phases above
	// took from st.rng depends on the clock (the ladder stops where it fails).
	ids := sampleIDs(rand.New(rand.NewSource(st.o.seed*97+5)), st.m.Users.Rows(), st.sz.probeUsers)
	items := st.sh.Items() // post-churn on serve-churn

	timeQuery := func(s mips.Solver) (time.Duration, error) {
		var err error
		wall := bestOf(2, func() {
			if _, e := s.Query(ids, K); e != nil {
				err = e
			}
		})
		return wall, err
	}

	// The live composite: scan counts and (serve-wired) wire traffic of one
	// pass over the subset.
	st.sh.ResetScanStats()
	var wire0 transport.Stats
	if st.lb != nil {
		wire0 = st.lb.Stats()
	}
	if _, err := st.sh.Query(ids, K); err != nil {
		return err
	}
	n := float64(len(ids))
	per := st.sh.ShardScanStats()
	total := float64(st.sh.ScanStats().Scanned)
	res.set("shard.scan_per_user", total/n)
	if total > 0 && len(per) > 0 {
		res.set("shard.head_scan_frac", float64(per[0].Scanned)/total)
	}
	if st.lb != nil {
		wire1 := st.lb.Stats()
		res.set("transport.calls_per_user", float64(wire1.Calls-wire0.Calls)/n)
		res.set("transport.bytes_per_user",
			float64(wire1.BytesSent-wire0.BytesSent+wire1.BytesReceived-wire0.BytesReceived)/n)
	}
	live, err := timeQuery(st.sh)
	if err != nil {
		return err
	}

	flat := lemp.New(lemp.Config{Seed: lempSeed})
	p, err := probeSolver(nil, 0, flat, st.m.Users, items, ids, st.aud, res)
	if err != nil {
		return err
	}
	res.set("lemp.build_s", p.build.Seconds())
	res.set("lemp.users_per_s", p.usersPerS)
	res.set("lemp.scan_per_user", p.scanPerUser)
	unsharded, err := timeQuery(flat)
	if err != nil {
		return err
	}

	direct := func(s int) (*shard.Sharded, error) {
		sh := shard.New(shard.Config{Shards: s, Partitioner: shard.ByNorm(),
			Factory: func() mips.Solver { return lemp.New(lemp.Config{Seed: lempSeed}) }})
		return sh, sh.Build(st.m.Users, items)
	}
	s1, err := direct(1)
	if err != nil {
		return err
	}
	one, err := timeQuery(s1)
	if err != nil {
		return err
	}
	res.set("shard.s1_overhead_frac", one.Seconds()/unsharded.Seconds()-1)
	if st.lb != nil {
		twin, err := direct(shards)
		if err != nil {
			return err
		}
		dir, err := timeQuery(twin)
		if err != nil {
			return err
		}
		res.set("transport.wired_slowdown", live.Seconds()/dir.Seconds())
	}
	sharedProbes(res, st.o, st.m.Users, items)
	return nil
}
