package main

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"optimus/internal/topk"
)

func TestPoissonScheduleRateAndSeed(t *testing.T) {
	const rate, dur = 5000.0, 4 * time.Second
	a := poissonSchedule(rand.New(rand.NewSource(42)), rate, dur)
	b := poissonSchedule(rand.New(rand.NewSource(42)), rate, dur)
	c := poissonSchedule(rand.New(rand.NewSource(43)), rate, dur)
	if len(a) != len(b) {
		t.Fatalf("equal seeds gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("equal seeds differ at arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
	if len(c) == len(a) && c[0] == a[0] {
		t.Fatalf("different seeds gave the same schedule")
	}
	// 20000 expected arrivals: the count is Poisson, σ ≈ 141, so ±4 % is > 5σ.
	want := rate * dur.Seconds()
	if got := float64(len(a)); math.Abs(got-want) > 0.04*want {
		t.Fatalf("got %v arrivals at %v req/s over %v, want about %v", got, rate, dur, want)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule not ascending at %d", i)
		}
	}
	if last := a[len(a)-1]; last >= dur {
		t.Fatalf("arrival at %v is outside the %v phase", last, dur)
	}
}

func TestZipfDrawsStayInRange(t *testing.T) {
	const users = 300
	p := newPopularity(rand.New(rand.NewSource(7)), users, zipfS)
	q := p.clone(rand.New(rand.NewSource(8)))
	counts := make([]int, users)
	for i := 0; i < 50000; i++ {
		for _, u := range []int{p.draw(), q.draw()} {
			if u < 0 || u >= users {
				t.Fatalf("draw %d out of [0,%d)", u, users)
			}
			counts[u]++
		}
	}
	hot := p.byRank(0)
	for u, n := range counts {
		if n > counts[hot] {
			t.Fatalf("user %d drawn %d times, more than the rank-0 user %d (%d)", u, n, hot, counts[hot])
		}
	}
	if counts[hot] < 100000/20 {
		t.Fatalf("rank-0 user drawn only %d of 100000 times: not zipf(%v)", counts[hot], zipfS)
	}
}

func okAnswer(int) ([]topk.Entry, error) { return make([]topk.Entry, K), nil }

// A server that stalls once must be charged for every request that was due
// during the stall. An open loop keeps sending on schedule and times each
// request from its intended send time, so about rate × stall requests carry
// part of the stall; a generator that waited for the stalled request before
// sending the next (coordinated omission) would show it on one request only.
func TestOpenLoopChargesStallFromIntendedTime(t *testing.T) {
	const rate, dur, stall = 2000.0, 400 * time.Millisecond, 50 * time.Millisecond
	at := poissonSchedule(rand.New(rand.NewSource(1)), rate, dur)
	var stallUntil atomic.Int64 // ns since start; 0 = the stall has not begun
	start := time.Now()
	q := func(u int) ([]topk.Entry, error) {
		now := time.Since(start)
		if now > 100*time.Millisecond {
			stallUntil.CompareAndSwap(0, int64(now+stall))
		}
		if wait := time.Duration(stallUntil.Load()) - now; wait > 0 {
			time.Sleep(wait)
		}
		return okAnswer(u)
	}
	r := runOpenLoop(at, make([]int, len(at)), dur, poolCap, q, nil)
	lat := r.latencies()
	if len(lat) != len(at) {
		t.Fatalf("%d of %d requests completed", len(lat), len(at))
	}
	queued := 0
	for _, l := range lat {
		if l > 5 {
			queued++
		}
	}
	if want := int(rate * stall.Seconds() * 0.6); queued < want {
		t.Fatalf("only %d requests show the %v stall, want at least %d: latency is not measured from intended time", queued, stall, want)
	}
	if max := lat[len(lat)-1]; max < 0.9*msOf(stall) {
		t.Fatalf("max latency %.1f ms does not show the %v stall", max, stall)
	}
	if p50 := quantileSorted(lat, 0.5); p50 > 0.5*msOf(stall) {
		t.Fatalf("median latency %.1f ms: the stall should only reach the tail", p50)
	}
}

// A full pool sheds: the arrival is a failed request and the pacer moves on,
// finishing the schedule on time although no request ever completes early.
func TestPoolExhaustionShedsWithoutBlockingPacer(t *testing.T) {
	const pool, dur = 8, 200 * time.Millisecond
	at := poissonSchedule(rand.New(rand.NewSource(3)), 1000, dur)
	release := make(chan struct{})
	q := func(u int) ([]topk.Entry, error) {
		<-release
		return okAnswer(u)
	}
	done := make(chan *openResult, 1)
	start := time.Now()
	go func() { done <- runOpenLoop(at, make([]int, len(at)), dur, pool, q, nil) }()
	// The pacer must reach the end of the schedule while every pooled
	// request is still blocked; only then are they released.
	time.Sleep(dur + 100*time.Millisecond)
	close(release)
	r := <-done
	if paced := time.Since(start); paced > dur+2*time.Second {
		t.Fatalf("open loop took %v for a %v schedule", paced, dur)
	}
	attempted, failed, _, shed := r.tally(1e9)
	if attempted != int64(len(at)) {
		t.Fatalf("attempted %d, scheduled %d", attempted, len(at))
	}
	if want := int64(len(at) - pool); shed != want || failed != want {
		t.Fatalf("shed %d failed %d, want %d: a full pool must shed every further arrival", shed, failed, want)
	}
	for i, l := range r.late {
		if l > 150*time.Millisecond {
			t.Fatalf("pacer ran %v late at arrival %d: it was blocked by the server", l, i)
		}
	}
}

func TestClosedLoopCountsAndWindows(t *testing.T) {
	q := func(u int) ([]topk.Entry, error) {
		time.Sleep(time.Millisecond)
		return okAnswer(u)
	}
	draw := func(rng *rand.Rand) func() int { return func() int { return rng.Intn(10) } }
	r := runClosedLoop(1, 4, 200*time.Millisecond, draw, q, func(int, []topk.Entry) bool { return true })
	if r.errors != 0 || r.wrong != 0 {
		t.Fatalf("errors %d wrong %d", r.errors, r.wrong)
	}
	// 4 clients × ≤ 1000 req/s each.
	if n := r.completions(); n < 100 || n > 900 {
		t.Fatalf("%d completions from 4 clients of a 1 ms server in 200 ms", n)
	}
	rates := r.windowRates(50 * time.Millisecond)
	if len(rates) != 4 {
		t.Fatalf("%d windows, want 4", len(rates))
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// → [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Fatalf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) → [0.75, 1.5, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
}
