package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"optimus/internal/topk"
)

// queryFunc answers one user's top-K. The generators know nothing else about
// the system under test, so the unit tests drive them with fakes.
type queryFunc func(user int) ([]topk.Entry, error)

// checkFunc inspects one successful response; false marks it wrong.
type checkFunc func(user int, got []topk.Entry) bool

// Request outcomes.
const (
	stOK    uint8 = iota
	stShed        // the in-flight pool was full at the arrival's due time
	stError       // the query returned an error
	stWrong       // the response failed its check
)

// poissonSchedule returns the due times of a Poisson arrival process of the
// given rate over [0, dur): exponential gaps drawn from rng. Equal seeds give
// equal schedules.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	if rate <= 0 || dur <= 0 {
		return nil
	}
	at := make([]time.Duration, 0, int(rate*dur.Seconds()*1.1)+16)
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return at
		}
		at = append(at, d)
	}
}

// popularity draws user ids with zipf(s) popularity. Rank r maps to a user
// through a seeded permutation, so hot users are spread over the id space
// (and over the dataset's taste clusters) instead of being ids 0, 1, 2, ….
type popularity struct {
	z    *rand.Zipf
	s    float64
	perm []int
}

func newPopularity(rng *rand.Rand, users int, s float64) *popularity {
	return &popularity{
		z:    rand.NewZipf(rng, s, 1, uint64(users-1)),
		s:    s,
		perm: rng.Perm(users),
	}
}

// clone returns a sampler over the same ranking that draws from rng, so
// concurrent clients do not share a random source.
func (p *popularity) clone(rng *rand.Rand) *popularity {
	return &popularity{z: rand.NewZipf(rng, p.s, 1, uint64(len(p.perm)-1)), s: p.s, perm: p.perm}
}

func (p *popularity) draw() int { return p.perm[p.z.Uint64()] }

// byRank returns the user at popularity rank r (0 = hottest).
func (p *popularity) byRank(r int) int { return p.perm[r] }

// openResult is the per-request record of one open-loop phase. Slices are
// indexed by request; times are offsets from the phase start.
type openResult struct {
	at     []time.Duration // intended send time
	done   []time.Duration // completion time (0 for shed requests)
	late   []time.Duration // how late the generator dispatched the request
	status []uint8
	dur    time.Duration
	start  time.Time
}

// latencyMs is the latency of request i measured from its intended send
// time, so a stalled server is charged for every request that queued behind
// the stall (no coordinated omission).
func (r *openResult) latencyMs(i int) float64 {
	return float64(r.done[i]-r.at[i]) / float64(time.Millisecond)
}

// runOpenLoop replays a precomputed schedule against q: one pacer (the calling
// goroutine) dispatches each arrival at its due time onto a bounded pool of
// request goroutines. An arrival that finds the pool full is shed — recorded
// as failed, never waited for — so the pacer cannot be slowed by the server.
func runOpenLoop(at []time.Duration, users []int, dur time.Duration, pool int, q queryFunc, check checkFunc) *openResult {
	n := len(at)
	res := &openResult{
		at: at, dur: dur,
		done:   make([]time.Duration, n),
		late:   make([]time.Duration, n),
		status: make([]uint8, n),
	}
	sem := make(chan struct{}, pool) // counting semaphore: in-flight requests
	var wg sync.WaitGroup
	res.start = time.Now()
	for i := 0; i < n; {
		now := time.Since(res.start)
		if wait := at[i] - now; wait > 0 {
			if wait > 20*time.Microsecond {
				time.Sleep(wait)
			} else {
				runtime.Gosched()
			}
			continue
		}
		res.late[i] = now - at[i]
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, err := q(users[i])
				res.done[i] = time.Since(res.start)
				switch {
				case err != nil:
					res.status[i] = stError
				case check != nil && !check(users[i], got):
					res.status[i] = stWrong
				}
				<-sem
			}(i)
		default:
			res.status[i] = stShed
		}
		i++
	}
	wg.Wait()
	return res
}

// closedResult records a closed-loop phase: every completion's finish time,
// per client.
type closedResult struct {
	done   [][]time.Duration
	errors int64
	wrong  int64
	dur    time.Duration
	start  time.Time
}

// runClosedLoop runs nClients callers that each send their next request only
// when the previous one has returned, for dur. newDraw gives each client its
// own user sampler over the client's random source.
func runClosedLoop(seed int64, nClients int, dur time.Duration, newDraw func(*rand.Rand) func() int, q queryFunc, check checkFunc) *closedResult {
	res := &closedResult{
		done: make([][]time.Duration, nClients),
		dur:  dur,
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	res.start = time.Now()
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			draw := newDraw(rand.New(rand.NewSource(seed + int64(c)*7919)))
			var errs, wrong int64
			for time.Since(res.start) < dur {
				u := draw()
				got, err := q(u)
				switch {
				case err != nil:
					errs++
				case check != nil && !check(u, got):
					wrong++
				}
				res.done[c] = append(res.done[c], time.Since(res.start))
			}
			mu.Lock()
			res.errors += errs
			res.wrong += wrong
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return res
}

func (r *closedResult) completions() int64 {
	var n int64
	for _, d := range r.done {
		n += int64(len(d))
	}
	return n
}

// windowRates bins completions into windows of the given length and returns
// completions per second for every full window.
func (r *closedResult) windowRates(window time.Duration) []float64 {
	nw := int(r.dur / window)
	if nw < 1 {
		nw, window = 1, r.dur
	}
	counts := make([]float64, nw)
	for _, ds := range r.done {
		for _, d := range ds {
			if w := int(d / window); w < nw {
				counts[w]++
			}
		}
	}
	for i := range counts {
		counts[i] /= window.Seconds()
	}
	return counts
}

// windowStat is one latency window of an open-loop phase.
type windowStat struct {
	p50, p99 float64 // ms
}

// windows cuts the phase into windows by intended send time and returns the
// latency percentiles of the requests that completed in each full window.
func (r *openResult) windows(window time.Duration) []windowStat {
	nw := int(r.dur / window)
	if nw < 1 {
		nw, window = 1, r.dur
	}
	buckets := make([][]float64, nw)
	for i := range r.at {
		if r.status[i] == stShed || r.status[i] == stError {
			continue
		}
		if w := int(r.at[i] / window); w < nw {
			buckets[w] = append(buckets[w], r.latencyMs(i))
		}
	}
	out := make([]windowStat, 0, nw)
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Float64s(b)
		out = append(out, windowStat{p50: quantileSorted(b, 0.50), p99: quantileSorted(b, 0.99)})
	}
	return out
}

// tally counts the phase's outcomes. A response later than the deadline is a
// failed request even though it was answered.
func (r *openResult) tally(deadlineMs float64) (attempted, failed, wrong, shed int64) {
	for i := range r.at {
		attempted++
		switch r.status[i] {
		case stShed:
			shed++
			failed++
		case stError:
			failed++
		case stWrong:
			wrong++
			failed++
		default:
			if r.latencyMs(i) > deadlineMs {
				failed++
			}
		}
	}
	return
}

// latencies returns every completed request's latency in ms, sorted.
func (r *openResult) latencies() []float64 {
	out := make([]float64, 0, len(r.at))
	for i := range r.at {
		if r.status[i] != stShed && r.status[i] != stError {
			out = append(out, r.latencyMs(i))
		}
	}
	sort.Float64s(out)
	return out
}

// lateness returns the generator's own dispatch lateness in ms, sorted.
func (r *openResult) lateness() []float64 {
	out := make([]float64, len(r.late))
	for i, l := range r.late {
		out[i] = float64(l) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
