package serving

// Tests of the work-conserving dispatcher and the in-batch dedup against a
// scripted fake solver. Every step waits on an event — a solver call
// entering, the queue reaching a length — never on a clock.

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/topk"
)

type solverCall struct {
	ids []int
	k   int
}

// fakeSolver answers user u at depth k with fakeRow(u, k), rejects ids
// outside [0, users), and records every batched call. With gated set, each
// call is announced on entered and then held until the test sends on release.
type fakeSolver struct {
	users   int
	gated   bool
	entered chan solverCall
	release chan struct{}
	cov     mips.Coverage // what QueryPartial reports

	mu    sync.Mutex
	calls []solverCall
}

func newFakeSolver(users int, gated bool) *fakeSolver {
	return &fakeSolver{users: users, gated: gated,
		entered: make(chan solverCall), release: make(chan struct{})}
}

func fakeRow(u, k int) []topk.Entry {
	row := make([]topk.Entry, k)
	for j := range row {
		row[j] = topk.Entry{Item: u*100 + j, Score: float64(k - j)}
	}
	return row
}

func (f *fakeSolver) Name() string                         { return "fake" }
func (f *fakeSolver) Batches() bool                        { return true }
func (f *fakeSolver) Build(users, items *mat.Matrix) error { return nil }
func (f *fakeSolver) QueryAll(k int) ([][]topk.Entry, error) {
	return nil, fmt.Errorf("fake: no QueryAll")
}
func (f *fakeSolver) NumUsers() int { return f.users }
func (f *fakeSolver) NumItems() int { return 1 << 20 }

func (f *fakeSolver) Query(ids []int, k int) ([][]topk.Entry, error) {
	return f.QueryCtx(nil, ids, k, mips.QueryOptions{})
}

func (f *fakeSolver) QueryCtx(_ context.Context, ids []int, k int, _ mips.QueryOptions) ([][]topk.Entry, error) {
	call := solverCall{ids: append([]int(nil), ids...), k: k}
	f.mu.Lock()
	f.calls = append(f.calls, call)
	f.mu.Unlock()
	if f.gated {
		f.entered <- call
		<-f.release
	}
	out := make([][]topk.Entry, len(ids))
	for i, u := range ids {
		if u < 0 || u >= f.users {
			return nil, fmt.Errorf("fake: user id %d out of range", u)
		}
		out[i] = fakeRow(u, k)
	}
	return out, nil
}

func (f *fakeSolver) QueryPartial(_ context.Context, ids []int, k int) ([][]topk.Entry, mips.Coverage, error) {
	res, err := f.Query(ids, k)
	return res, f.cov, err
}

func (f *fakeSolver) recorded() []solverCall {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]solverCall(nil), f.calls...)
}

// queryAsync submits one request from its own goroutine; the answer (checked
// against fakeRow, then scribbled over — a caller owns what Query returns)
// is reported on the returned channel.
func queryAsync(srv *Server, u, k int) <-chan error {
	done := make(chan error, 1)
	go func() {
		res, err := srv.Query(context.Background(), u, k)
		if err == nil && !reflect.DeepEqual(res, fakeRow(u, k)) {
			err = fmt.Errorf("user %d: got %v, want %v", u, res, fakeRow(u, k))
		}
		for i := range res {
			res[i] = topk.Entry{Item: -1}
		}
		done <- err
	}()
	return done
}

// awaitQueued yields until n requests sit in the server's queue.
func awaitQueued(srv *Server, n int) {
	for len(srv.queue) < n {
		runtime.Gosched()
	}
}

// queueBehindHeldCall submits a request for user 99, waits until the gated
// solver holds its call open, then submits one request per entry of users
// and returns once all of those are queued. The caller releases the held
// call; the returned channels report every request's outcome.
func queueBehindHeldCall(srv *Server, fs *fakeSolver, users []int) []<-chan error {
	done := []<-chan error{queryAsync(srv, 99, 3)}
	<-fs.entered
	for _, u := range users {
		done = append(done, queryAsync(srv, u, 3))
	}
	awaitQueued(srv, len(users))
	return done
}

// TestIdleServerDispatchesImmediately: a lone request reaches the solver as
// a batch of one while no second request exists — nothing waits for company.
func TestIdleServerDispatchesImmediately(t *testing.T) {
	fs := newFakeSolver(10, true)
	srv, err := New(fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := queryAsync(srv, 4, 3)
	call := <-fs.entered // the only request submitted so far is already at the solver
	if !reflect.DeepEqual(call, solverCall{ids: []int{4}, k: 3}) {
		t.Fatalf("lone request reached the solver as %+v", call)
	}
	fs.release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Requests != 1 || st.Batches != 1 || st.Coalesced != 0 {
		t.Fatalf("stats %+v, want 1 request in 1 batch", st)
	}
}

// TestBusyServerCoalesces: requests that arrive while a solver call is in
// flight form the next batch on their own — all of them when they fit,
// MaxBatch at a time when they do not.
func TestBusyServerCoalesces(t *testing.T) {
	for _, tc := range []struct {
		maxBatch, n int
		want        []int // batch sizes after the opening batch of one
	}{
		{maxBatch: 64, n: 40, want: []int{40}},
		{maxBatch: 8, n: 19, want: []int{8, 8, 3}},
	} {
		fs := newFakeSolver(100, true)
		srv, err := New(fs, Config{MaxBatch: tc.maxBatch})
		if err != nil {
			t.Fatal(err)
		}
		users := make([]int, tc.n)
		for i := range users {
			users[i] = i
		}
		done := queueBehindHeldCall(srv, fs, users)
		fs.release <- struct{}{}
		seen := make(map[int]bool)
		for _, size := range tc.want {
			call := <-fs.entered
			if len(call.ids) != size {
				t.Fatalf("MaxBatch %d, %d queued: batch of %d, want %d", tc.maxBatch, tc.n, len(call.ids), size)
			}
			for _, u := range call.ids {
				seen[u] = true
			}
			fs.release <- struct{}{}
		}
		for _, d := range done {
			if err := <-d; err != nil {
				t.Fatal(err)
			}
		}
		srv.Close()
		if calls := fs.recorded(); len(calls) != 1+len(tc.want) || len(seen) != tc.n {
			t.Fatalf("MaxBatch %d, %d queued: %d solver calls over %d users, want %d calls",
				tc.maxBatch, tc.n, len(calls), len(seen), 1+len(tc.want))
		}
	}
}

// TestDuplicatesUnderLoadOwnTheirRows drives the dedup through the public
// API: forty requests for five users queue behind a held call, the solver
// then sees the five users once, and every caller checks and overwrites its
// own answer the moment it has it (-race finds a row shared between them).
func TestDuplicatesUnderLoadOwnTheirRows(t *testing.T) {
	fs := newFakeSolver(100, true)
	srv, err := New(fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const n = 40
	users := make([]int, n)
	for i := range users {
		users[i] = i % 5
	}
	done := queueBehindHeldCall(srv, fs, users)
	fs.release <- struct{}{}
	call := <-fs.entered
	if len(call.ids) != 5 {
		t.Fatalf("solver saw %v for 40 requests over 5 users", call.ids)
	}
	fs.release <- struct{}{}
	for _, d := range done {
		if err := <-d; err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Stats(); st.Requests != n+1 || st.Coalesced != n-5 || st.Batches != 2 {
		t.Fatalf("stats %+v, want %d requests, %d coalesced, 2 batches", st, n+1, n-5)
	}
}

// TestDedupWithinBatch pins the dedup on a hand-built batch: one solver call
// per k over the distinct users in arrival order, equal rows in distinct
// backing arrays for duplicate requesters, and the counters that report it.
func TestDedupWithinBatch(t *testing.T) {
	fs := newFakeSolver(10, false)
	srv, err := New(fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	batch := []request{
		{userID: 3, k: 2}, {userID: 5, k: 2}, {userID: 3, k: 2}, {userID: 7, k: 2},
		{userID: 5, k: 2}, {userID: 3, k: 2}, {userID: 3, k: 4}, {userID: 3, k: 4},
	}
	out := dispatchRequests(t, srv, batch)
	calls := fs.recorded()
	if len(calls) != 2 {
		t.Fatalf("%d solver calls for two k-groups: %+v", len(calls), calls)
	}
	for _, c := range calls {
		want := []int{3, 5, 7}
		if c.k == 4 {
			want = []int{3}
		}
		if !reflect.DeepEqual(c.ids, want) {
			t.Fatalf("k=%d call carried %v, want %v", c.k, c.ids, want)
		}
	}
	for i, resp := range out {
		if resp.err != nil || !reflect.DeepEqual(resp.entries, fakeRow(batch[i].userID, batch[i].k)) {
			t.Fatalf("request %d: %v, %v", i, resp.entries, resp.err)
		}
	}
	// Requests 0, 2 and 5 asked for (3, 2): scribbling on one row must leave
	// the other two intact.
	out[2].entries[0] = topk.Entry{Item: -1}
	for _, i := range []int{0, 5} {
		if !reflect.DeepEqual(out[i].entries, fakeRow(3, 2)) {
			t.Fatalf("request %d shares a backing array with request 2", i)
		}
	}
	if st := srv.Stats(); st.Requests != 8 || st.Coalesced != 4 || st.Batches != 1 {
		t.Fatalf("stats %+v, want 8 requests, 4 coalesced, 1 batch", st)
	}
}

// TestDedupBadUserFailsOnlyItsRequesters: a bad id repeated in a batch fails
// each of its requesters through retryGroup; the healthy rest — duplicates
// included — is answered by one retry over its distinct users.
func TestDedupBadUserFailsOnlyItsRequesters(t *testing.T) {
	fs := newFakeSolver(10, false)
	srv, err := New(fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ids := []int{1, 999, 1, 999, 2}
	out := dispatchBatch(t, srv, ids, 3)
	for i, resp := range out {
		if bad := ids[i] == 999; bad != (resp.err != nil) {
			t.Fatalf("request %d (user %d): err = %v", i, ids[i], resp.err)
		}
		if resp.err == nil && !reflect.DeepEqual(resp.entries, fakeRow(ids[i], 3)) {
			t.Fatalf("request %d: %v", i, resp.entries)
		}
	}
	calls := fs.recorded()
	if first, last := calls[0], calls[len(calls)-1]; !reflect.DeepEqual(first.ids, []int{1, 999, 2}) ||
		!reflect.DeepEqual(last.ids, []int{1, 2}) {
		t.Fatalf("solver calls %+v: want the distinct group first and the distinct healthy retry last", calls)
	}
}

// TestDedupCancelledTwin: a requester that gave up before dispatch is
// dropped (and not counted as answered) without taking down the live
// request for the same user.
func TestDedupCancelledTwin(t *testing.T) {
	fs := newFakeSolver(10, false)
	srv, err := New(fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	out := dispatchRequests(t, srv, []request{
		{userID: 4, k: 3, ctx: dead}, {userID: 4, k: 3, ctx: context.Background()},
	})
	if out[0].err != context.Canceled {
		t.Fatalf("cancelled request: err = %v", out[0].err)
	}
	if out[1].err != nil || !reflect.DeepEqual(out[1].entries, fakeRow(4, 3)) {
		t.Fatalf("live twin: %v, %v", out[1].entries, out[1].err)
	}
	if st := srv.Stats(); st.Requests != 1 || st.Coalesced != 0 || st.Batches != 1 {
		t.Fatalf("stats %+v, want the one live request in one batch", st)
	}
	// A batch nobody is waiting for never reaches the solver.
	dispatchRequests(t, srv, []request{{userID: 4, k: 3, ctx: dead}})
	if st := srv.Stats(); st.Requests != 1 || st.Batches != 1 || len(fs.recorded()) != 1 {
		t.Fatalf("stats %+v after an all-cancelled batch, %d solver calls", st, len(fs.recorded()))
	}
}

// TestDedupPartialCoverageReachesDuplicates: under AllowPartial every
// requester of a shared row also gets the call's coverage report.
func TestDedupPartialCoverageReachesDuplicates(t *testing.T) {
	fs := newFakeSolver(10, false)
	fs.cov = mips.Coverage{Shards: 4, Answered: 3, Items: 100, ItemsCovered: 75, Skipped: []int{2}}
	srv, err := New(fs, Config{AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i, resp := range dispatchBatch(t, srv, []int{6, 6, 8, 6}, 3) {
		if resp.err != nil || !reflect.DeepEqual(resp.cov, fs.cov) {
			t.Fatalf("request %d: coverage %v, err %v", i, resp.cov, resp.err)
		}
	}
	if calls := fs.recorded(); len(calls) != 1 || !reflect.DeepEqual(calls[0].ids, []int{6, 8}) {
		t.Fatalf("solver calls %+v, want one over users [6 8]", calls)
	}
}
