package mutlog_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"optimus/internal/core"
	"optimus/internal/dataset"
	"optimus/internal/lemp"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/mutlog"
	"optimus/internal/shard"
)

// fakeIndex is a minimal ItemMutator whose corpus is a list of integer tags
// (each added row carries its tag in column 0) — the executable bookkeeping
// the coalescing tests assert against without a real solver in the way.
type fakeIndex struct {
	tags []int
	gen  uint64
	cols int
}

func newFakeIndex(n, cols int) *fakeIndex {
	f := &fakeIndex{cols: cols}
	for i := 0; i < n; i++ {
		f.tags = append(f.tags, i)
	}
	return f
}

func (f *fakeIndex) AddItems(items *mat.Matrix) ([]int, error) {
	if err := mips.ValidateAddItems(items, f.cols); err != nil {
		return nil, err
	}
	base := len(f.tags)
	for r := 0; r < items.Rows(); r++ {
		f.tags = append(f.tags, int(items.Row(r)[0]))
	}
	f.gen++
	return mips.IDRange(base, items.Rows()), nil
}

func (f *fakeIndex) RemoveItems(ids []int) error {
	sorted, err := mips.ValidateRemoveIDs(ids, len(f.tags))
	if err != nil {
		return err
	}
	w, next := 0, 0
	for i, tag := range f.tags {
		if next < len(sorted) && sorted[next] == i {
			next++
			continue
		}
		f.tags[w] = tag
		w++
	}
	f.tags = f.tags[:w]
	f.gen++
	return nil
}

func (f *fakeIndex) Generation() uint64 { return f.gen }
func (f *fakeIndex) NumItems() int      { return len(f.tags) }
func (f *fakeIndex) NumUsers() int      { return 1 }

// countingApplier counts (and optionally fails) applies on the way to an
// inner Applier.
type countingApplier struct {
	inner mutlog.Applier
	calls int
	fail  int
}

func (c *countingApplier) Mutate(fn func(mips.ItemMutator) error) error {
	if c.fail > 0 {
		c.fail--
		return errors.New("injected apply failure")
	}
	c.calls++
	return c.inner.Mutate(fn)
}

func (c *countingApplier) NumItems() int { return c.inner.NumItems() }

// tagRows builds a matrix whose rows carry the given tags in column 0.
func tagRows(cols int, tags ...int) *mat.Matrix {
	m := mat.New(len(tags), cols)
	for r, tag := range tags {
		m.Row(r)[0] = float64(tag)
	}
	return m
}

// manual is the flush policy the deterministic tests use: explicit Flush
// only.
var manual = mutlog.Config{MaxEvents: -1, MaxDelay: -1}

func newFakeLog(t *testing.T, n int) (*fakeIndex, *countingApplier, *mutlog.Log) {
	t.Helper()
	idx := newFakeIndex(n, 3)
	direct, err := mutlog.Direct(idx)
	if err != nil {
		t.Fatal(err)
	}
	ap := &countingApplier{inner: direct}
	log, err := mutlog.New(ap, manual)
	if err != nil {
		t.Fatal(err)
	}
	return idx, ap, log
}

func wantTags(t *testing.T, idx *fakeIndex, want ...int) {
	t.Helper()
	if len(idx.tags) != len(want) {
		t.Fatalf("corpus tags %v, want %v", idx.tags, want)
	}
	for i, tag := range want {
		if idx.tags[i] != tag {
			t.Fatalf("corpus tags %v, want %v", idx.tags, want)
		}
	}
}

// TestCoalescingCollapsesToOneApply: N events, one drain, at most one
// AddItems + one RemoveItems — the tentpole economics.
func TestCoalescingCollapsesToOneApply(t *testing.T) {
	idx, ap, log := newFakeLog(t, 6)
	if _, err := log.Add(tagRows(3, 100, 101)); err != nil {
		t.Fatal(err)
	}
	if err := log.Remove([]int{1, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := log.Add(tagRows(3, 102)); err != nil {
		t.Fatal(err)
	}
	if st := log.Stats(); st.PendingEvents != 5 || st.PendingAdds != 3 || st.PendingRemoves != 2 {
		t.Fatalf("pending stats %+v", st)
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	if ap.calls != 1 {
		t.Fatalf("flush paid %d applies, want 1", ap.calls)
	}
	if idx.gen != 2 {
		t.Fatalf("index generation %d, want 2 (one AddItems + one RemoveItems)", idx.gen)
	}
	// One-at-a-time: [0..5] +100,101 → remove ids 1,4 → +102.
	wantTags(t, idx, 0, 2, 3, 5, 100, 101, 102)
	if st := log.Stats(); st.PendingEvents != 0 || st.Flushes != 1 || st.FlushedEvents != 5 {
		t.Fatalf("post-flush stats %+v", st)
	}
}

// TestRemoveRenumbersThroughPendingRemoves: a remove enqueued after earlier
// pending removes is rewritten through the positional compaction — id 1
// twice means original items 1 and 2.
func TestRemoveRenumbersThroughPendingRemoves(t *testing.T) {
	idx, ap, log := newFakeLog(t, 6)
	if err := log.Remove([]int{1}); err != nil {
		t.Fatal(err)
	}
	if err := log.Remove([]int{1}); err != nil {
		t.Fatal(err)
	}
	if err := log.Remove([]int{0, 2}); err != nil { // originals 0 and 4
		t.Fatal(err)
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	if ap.calls != 1 || idx.gen != 1 {
		t.Fatalf("applies %d, generation %d; want 1 apply, 1 RemoveItems", ap.calls, idx.gen)
	}
	wantTags(t, idx, 3, 5)
}

// TestRemoveOfPendingAddCancels: both events annihilate in the log; the
// flushed batch holds only the surviving add, and the cancelled handle is
// dead.
func TestRemoveOfPendingAddCancels(t *testing.T) {
	idx, ap, log := newFakeLog(t, 4)
	handles, err := log.Add(tagRows(3, 200, 201))
	if err != nil {
		t.Fatal(err)
	}
	// Virtual ids: live 0..3 survive, pending adds sit at 4 and 5.
	if err := log.Remove([]int{4}); err != nil {
		t.Fatal(err)
	}
	if st := log.Stats(); st.Cancelled != 1 || st.PendingEvents != 1 {
		t.Fatalf("post-cancel stats %+v", st)
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	if ap.calls != 1 || idx.gen != 1 {
		t.Fatalf("applies %d, generation %d; want 1 apply with only AddItems", ap.calls, idx.gen)
	}
	wantTags(t, idx, 0, 1, 2, 3, 201)
	if _, ok := log.Resolve(handles[0]); ok {
		t.Fatal("cancelled handle resolved")
	}
	if id, ok := log.Resolve(handles[1]); !ok || id != 4 {
		t.Fatalf("surviving handle resolved to (%d,%v), want (4,true)", id, ok)
	}
}

// TestFullyCancelledBatchSkipsApply: an all-annihilated batch (and an empty
// log) never reaches the applier — no drain, no generation tick.
func TestFullyCancelledBatchSkipsApply(t *testing.T) {
	idx, ap, log := newFakeLog(t, 4)
	if err := log.Flush(); err != nil { // nothing pending at all
		t.Fatal(err)
	}
	handles, err := log.Add(tagRows(3, 300))
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Cancel(handles[0]); err != nil {
		t.Fatal(err)
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	if ap.calls != 0 || idx.gen != 0 {
		t.Fatalf("empty batches paid %d applies, %d generations; want 0, 0", ap.calls, idx.gen)
	}
	if st := log.Stats(); st.SkippedFlushes != 2 || st.Cancelled != 1 || st.Flushes != 0 {
		t.Fatalf("stats %+v", st)
	}
	if err := log.Cancel(handles[0]); err == nil {
		t.Fatal("double Cancel succeeded")
	}
}

// TestCancelCannotStrandTheBatch: cancellations obey the same never-empty
// rule as removals, so pending removes can never outgrow the flushable
// corpus — without the guard, removing every virtual id and then cancelling
// the pending adds would leave a batch no flush can ever apply.
func TestCancelCannotStrandTheBatch(t *testing.T) {
	idx, _, log := newFakeLog(t, 5)
	handles, err := log.Add(tagRows(3, 900, 901, 902))
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Remove([]int{0, 1, 2, 3, 4}); err != nil { // virtual 8 → 3
		t.Fatal(err)
	}
	if err := log.Cancel(handles[0]); err != nil {
		t.Fatal(err)
	}
	if err := log.Cancel(handles[1]); err != nil { // virtual now 1
		t.Fatal(err)
	}
	if err := log.Cancel(handles[2]); err == nil || !strings.Contains(err.Error(), "empty the corpus") {
		t.Fatalf("emptying Cancel accepted: %v", err)
	}
	if err := log.Remove([]int{0}); err == nil {
		t.Fatalf("emptying Remove accepted")
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	wantTags(t, idx, 902)
}

// TestMaxEventsTriggersSynchronousFlush: the size trigger applies inside the
// enqueueing call.
func TestMaxEventsTriggersSynchronousFlush(t *testing.T) {
	idx := newFakeIndex(5, 3)
	direct, err := mutlog.Direct(idx)
	if err != nil {
		t.Fatal(err)
	}
	ap := &countingApplier{inner: direct}
	log, err := mutlog.New(ap, mutlog.Config{MaxEvents: 3, MaxDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if _, err := log.Add(tagRows(3, 400, 401)); err != nil {
		t.Fatal(err)
	}
	if ap.calls != 0 {
		t.Fatal("flushed below MaxEvents")
	}
	if err := log.Remove([]int{0}); err != nil {
		t.Fatal(err)
	}
	if ap.calls != 1 {
		t.Fatalf("applies %d after reaching MaxEvents, want 1", ap.calls)
	}
	wantTags(t, idx, 1, 2, 3, 4, 400, 401)
}

// TestMaxDelayBackgroundFlush: the staleness bound applies the batch without
// any further calls.
func TestMaxDelayBackgroundFlush(t *testing.T) {
	idx := newFakeIndex(4, 3)
	direct, err := mutlog.Direct(idx)
	if err != nil {
		t.Fatal(err)
	}
	log, err := mutlog.New(direct, mutlog.Config{MaxEvents: -1, MaxDelay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if _, err := log.Add(tagRows(3, 500)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for log.Stats().Flushes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background flusher never applied the batch")
		}
		time.Sleep(time.Millisecond)
	}
	wantTags(t, idx, 0, 1, 2, 3, 500)
}

// TestEnqueueValidation: malformed events are rejected with the log
// unchanged.
func TestEnqueueValidation(t *testing.T) {
	_, ap, log := newFakeLog(t, 4)
	if _, err := log.Add(nil); err == nil {
		t.Fatal("nil Add accepted")
	}
	if _, err := log.Add(tagRows(3, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := log.Add(tagRows(2, 2)); err == nil || !strings.Contains(err.Error(), "factors") {
		t.Fatalf("cols mismatch accepted: %v", err)
	}
	// Virtual corpus: 4 live + 1 pending = 5.
	for _, bad := range [][]int{nil, {5}, {-1}, {2, 2}, {0, 1, 2, 3, 4}} {
		if err := log.Remove(bad); err == nil {
			t.Fatalf("Remove(%v) accepted", bad)
		}
	}
	if st := log.Stats(); st.PendingEvents != 1 {
		t.Fatalf("rejected events changed the log: %+v", st)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if ap.calls != 1 {
		t.Fatalf("Close flushed %d times, want 1", ap.calls)
	}
	if _, err := log.Add(tagRows(3, 9)); !errors.Is(err, mutlog.ErrClosed) {
		t.Fatalf("Add after Close: %v, want ErrClosed", err)
	}
	if err := log.Remove([]int{0}); !errors.Is(err, mutlog.ErrClosed) {
		t.Fatalf("Remove after Close: %v, want ErrClosed", err)
	}
	if err := log.Flush(); !errors.Is(err, mutlog.ErrClosed) {
		t.Fatalf("Flush after Close: %v, want ErrClosed", err)
	}
	if err := log.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestFlushErrorRetainsEvents: a failed apply keeps the batch pending (the
// index is untouched per the error-atomicity contract) and a later flush
// applies it.
func TestFlushErrorRetainsEvents(t *testing.T) {
	idx, ap, log := newFakeLog(t, 4)
	ap.fail = 1
	if _, err := log.Add(tagRows(3, 600)); err != nil {
		t.Fatal(err)
	}
	if err := log.Flush(); err == nil {
		t.Fatal("failed apply reported success")
	}
	if st := log.Stats(); st.PendingEvents != 1 || st.Flushes != 0 {
		t.Fatalf("stats after failed flush %+v", st)
	}
	wantTags(t, idx, 0, 1, 2, 3)
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	wantTags(t, idx, 0, 1, 2, 3, 600)
}

// TestHandleLifecycleAcrossFlushes: resolutions stay current through later
// flushed removals — survivors renumber, removed handles die.
func TestHandleLifecycleAcrossFlushes(t *testing.T) {
	idx, _, log := newFakeLog(t, 4)
	handles, err := log.Add(tagRows(3, 700, 701))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := log.Resolve(handles[0]); ok {
		t.Fatal("pending handle resolved")
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	id0, ok0 := log.Resolve(handles[0])
	id1, ok1 := log.Resolve(handles[1])
	if !ok0 || !ok1 || id0 != 4 || id1 != 5 {
		t.Fatalf("resolved (%d,%v) (%d,%v), want (4,true) (5,true)", id0, ok0, id1, ok1)
	}
	// Remove live id 0 and the first flushed add (virtual = live id here).
	if err := log.Remove([]int{0, id0}); err != nil {
		t.Fatal(err)
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := log.Resolve(handles[0]); ok {
		t.Fatal("removed handle still resolves")
	}
	if id, ok := log.Resolve(handles[1]); !ok || id != 3 {
		t.Fatalf("survivor handle resolved to (%d,%v), want (3,true)", id, ok)
	}
	wantTags(t, idx, 1, 2, 3, 701)
	if idx.tags[3] != 701 {
		t.Fatalf("resolution disagrees with corpus: %v", idx.tags)
	}
}

// TestCorpusDriftDetected: mutating the index behind the log's back fails
// the next flush instead of silently misapplying ids.
func TestCorpusDriftDetected(t *testing.T) {
	idx, _, log := newFakeLog(t, 4)
	if _, err := log.Add(tagRows(3, 800)); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.AddItems(tagRows(3, 999)); err != nil { // out-of-band
		t.Fatal(err)
	}
	if err := log.Flush(); err == nil || !strings.Contains(err.Error(), "outside the log") {
		t.Fatalf("drift not detected: %v", err)
	}
}

func model(t testing.TB, name string, scale float64) *dataset.Model {
	t.Helper()
	cfg, err := dataset.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dataset.Generate(cfg.Scale(scale))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFlushEquivalenceProperty is the acceptance oracle: over random event
// interleavings — batched adds, removes rewritten through pending
// compactions, removes of still-pending adds, interior flushes — the
// log-then-flush state is entry-for-entry identical (mips.VerifyMutation)
// to applying the same events one at a time, across
// {BMM, LEMP, MAXIMUS} × ByNorm × S∈{1,4}.
func TestFlushEquivalenceProperty(t *testing.T) {
	m := model(t, "r2-nomad-25", 0.04)
	pool := model(t, "netflix-nomad-25", 0.04).Items
	const k = 7
	const events = 40
	factories := map[string]mips.Factory{
		"BMM":     func() mips.Solver { return core.NewBMM(core.BMMConfig{}) },
		"LEMP":    func() mips.Solver { return lemp.New(lemp.Config{Seed: 3}) },
		"MAXIMUS": func() mips.Solver { return core.NewMaximus(core.MaximusConfig{Seed: 3}) },
	}
	for _, sub := range []string{"BMM", "LEMP", "MAXIMUS"} {
		factory := factories[sub]
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/S=%d", sub, shards), func(t *testing.T) {
				cfg := shard.Config{Shards: shards, Partitioner: shard.ByNorm(), Factory: factory}
				oneAtATime := shard.New(cfg)
				logged := shard.New(cfg)
				for _, s := range []*shard.Sharded{oneAtATime, logged} {
					if err := s.Build(m.Users, m.Items); err != nil {
						t.Fatal(err)
					}
				}
				direct, err := mutlog.Direct(logged)
				if err != nil {
					t.Fatal(err)
				}
				log, err := mutlog.New(direct, manual)
				if err != nil {
					t.Fatal(err)
				}

				// Reference bookkeeping: the mutated corpus, plus one tag
				// per row so handle resolutions can be checked (initial
				// rows and one-at-a-time rows tag -1; logged adds tag their
				// handle).
				corpus := m.Items
				tags := make([]int, corpus.Rows())
				for i := range tags {
					tags[i] = -1
				}
				var handles []mutlog.Handle
				rng := rand.New(rand.NewSource(int64(17 + shards)))
				poolNext := 0
				for ev := 0; ev < events; ev++ {
					if rng.Intn(2) == 0 || corpus.Rows() < 4 {
						n := 1 + rng.Intn(3)
						if poolNext+n > pool.Rows() {
							poolNext = 0
						}
						add := pool.RowSlice(poolNext, poolNext+n)
						poolNext += n
						if _, err := oneAtATime.AddItems(add); err != nil {
							t.Fatalf("event %d: %v", ev, err)
						}
						hs, err := log.Add(add)
						if err != nil {
							t.Fatalf("event %d: %v", ev, err)
						}
						handles = append(handles, hs...)
						corpus = mat.AppendRows(corpus, add)
						for _, h := range hs {
							tags = append(tags, int(h))
						}
					} else {
						n := 1 + rng.Intn(3)
						ids := rng.Perm(corpus.Rows())[:n]
						if err := oneAtATime.RemoveItems(ids); err != nil {
							t.Fatalf("event %d: %v", ev, err)
						}
						if err := log.Remove(ids); err != nil {
							t.Fatalf("event %d: %v", ev, err)
						}
						sorted, err := mips.ValidateRemoveIDs(ids, corpus.Rows())
						if err != nil {
							t.Fatal(err)
						}
						corpus = mat.RemoveRows(corpus, sorted)
						w, next := 0, 0
						for i, tag := range tags {
							if next < len(sorted) && sorted[next] == i {
								next++
								continue
							}
							tags[w] = tag
							w++
						}
						tags = tags[:w]
					}
					if rng.Intn(7) == 0 {
						if err := log.Flush(); err != nil {
							t.Fatalf("interior flush after event %d: %v", ev, err)
						}
					}
				}
				if err := log.Flush(); err != nil {
					t.Fatal(err)
				}

				// Oracle 1: the flushed composite vs a fresh build over the
				// reference corpus (and the independent exactness check).
				if err := mips.VerifyMutation(logged, m.Users, corpus, k); err != nil {
					t.Fatalf("flushed vs fresh: %v", err)
				}
				// Oracle 2: entry-for-entry against one-at-a-time
				// application of the identical event stream.
				want, err := oneAtATime.QueryAll(k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := logged.QueryAll(k)
				if err != nil {
					t.Fatal(err)
				}
				for u := range want {
					if len(want[u]) != len(got[u]) {
						t.Fatalf("user %d: %d vs %d entries", u, len(got[u]), len(want[u]))
					}
					for r := range want[u] {
						if want[u][r].Item != got[u][r].Item {
							t.Fatalf("user %d rank %d: logged item %d, one-at-a-time %d",
								u, r, got[u][r].Item, want[u][r].Item)
						}
					}
				}
				// Handle resolutions agree with the reference tags.
				expected := make(map[int]int) // handle -> corpus id
				for id, tag := range tags {
					if tag >= 0 {
						expected[tag] = id
					}
				}
				for _, h := range handles {
					id, ok := log.Resolve(h)
					wantID, alive := expected[int(h)]
					if ok != alive || (alive && id != wantID) {
						t.Fatalf("handle %d resolved to (%d,%v), want (%d,%v)", h, id, ok, wantID, alive)
					}
				}
				if st := log.Stats(); st.PendingEvents != 0 {
					t.Fatalf("events left pending after final flush: %+v", st)
				}
			})
		}
	}
}
