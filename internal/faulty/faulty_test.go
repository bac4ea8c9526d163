package faulty

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"optimus/internal/lemp"
	"optimus/internal/mat"
	"optimus/internal/mips"
)

// built returns a LEMP index over a norm-skewed random corpus — a pruning,
// scan-metered, mutable inner solver.
func built(t *testing.T) (*lemp.Index, *mat.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	users, items := mat.New(40, 8), mat.New(400, 8)
	for i := range users.Data() {
		users.Data()[i] = rng.NormFloat64()
	}
	for i := 0; i < items.Rows(); i++ {
		scale := math.Exp(rng.NormFloat64())
		for j := range items.Row(i) {
			items.Row(i)[j] = rng.NormFloat64() * scale
		}
	}
	x := lemp.New(lemp.Config{TuneSample: 0, Seed: 1})
	if err := x.Build(users, items); err != nil {
		t.Fatal(err)
	}
	return x, items
}

// TestQueryFaultCountsEveryQueryMethod: Query, QueryAll and QueryCtx share
// one OpQuery counter, so a fault scheduled for call 3 fires on the third
// query whichever method makes it.
func TestQueryFaultCountsEveryQueryMethod(t *testing.T) {
	inner, _ := built(t)
	ids := []int{0, 1, 2}
	methods := map[string]func(*Solver) error{
		"Query":    func(s *Solver) error { _, err := s.Query(ids, 3); return err },
		"QueryAll": func(s *Solver) error { _, err := s.QueryAll(3); return err },
		"QueryCtx": func(s *Solver) error {
			_, err := s.QueryCtx(context.Background(), ids, 3, mips.QueryOptions{})
			return err
		},
	}
	order := []string{"Query", "QueryAll", "QueryCtx"}
	for i, name := range order {
		t.Run(name, func(t *testing.T) {
			s := Wrap(inner, Plan{Faults: []Fault{{Op: OpQuery, Call: 3, Kind: KindError}}})
			// The two other methods make calls 1 and 2; this one makes call 3.
			for _, other := range []string{order[(i+1)%3], order[(i+2)%3]} {
				if err := methods[other](s); err != nil {
					t.Fatalf("%s before the scheduled call: %v", other, err)
				}
			}
			if err := methods[name](s); !errors.Is(err, ErrInjected) {
				t.Fatalf("%s as call 3: err = %v, want ErrInjected", name, err)
			}
			if err := methods[name](s); err != nil {
				t.Fatalf("%s as call 4: %v", name, err)
			}
			if n := s.Calls(OpQuery); n != 4 {
				t.Fatalf("Calls(OpQuery) = %d, want 4", n)
			}
		})
	}
}

// TestQueryCtxForwardsFloorsAndBoard: the wrapper hands QueryOptions to the
// inner solver's QueryCtx, so a floor-seeded call returns the inner's floor
// prefix and prunes the inner's scans. (Floors are the only seed left: the
// live floor board this test also forwarded is gone.)
func TestQueryCtxForwardsFloorsAndBoard(t *testing.T) {
	inner, _ := built(t)
	const k = 5
	ids := mips.AllUserIDs(inner.NumUsers())
	inner.ResetScanStats()
	want, err := inner.Query(ids, k)
	if err != nil {
		t.Fatal(err)
	}
	unseeded := inner.ScanStats().Scanned
	floors := make([]float64, len(ids))
	for i := range floors {
		floors[i] = want[i][0].Score
	}
	s := Wrap(inner, Plan{})
	t.Run("floors", func(t *testing.T) {
		inner.ResetScanStats()
		got, err := s.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors})
		if err != nil {
			t.Fatal(err)
		}
		if err := mips.VerifyFloorPrefix(want, got, floors); err != nil {
			t.Fatal(err)
		}
		if seeded := inner.ScanStats().Scanned; seeded >= unseeded {
			t.Fatalf("seeded call scanned %d, unseeded %d — the floors did not reach the inner solver", seeded, unseeded)
		}
	})
}

// TestLatencyFaultHonorsDeadline: an injected stall races the caller's ctx,
// and the shorter deadline wins with the ctx error.
func TestLatencyFaultHonorsDeadline(t *testing.T) {
	inner, _ := built(t)
	s := Wrap(inner, Plan{Faults: []Fault{{Op: OpQuery, Call: 1, Kind: KindLatency, Latency: 10 * time.Second}}})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.QueryCtx(ctx, []int{0}, 3, mips.QueryOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("stall ran %v past a 20ms deadline", el)
	}
}

// TestTornMutationAdvancesInnerGeneration: a torn write applies the inner
// mutation and still reports failure.
func TestTornMutationAdvancesInnerGeneration(t *testing.T) {
	inner, items := built(t)
	s := Wrap(inner, Plan{Faults: []Fault{{Op: OpMutate, Call: 1, Kind: KindTorn}}})
	gen := inner.Generation()
	if _, err := s.AddItems(items.RowSlice(0, 2)); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn AddItems: err = %v, want ErrInjected", err)
	}
	if inner.Generation() != gen+1 || s.Generation() != gen+1 {
		t.Fatalf("generation inner %d, wrapper %d after a torn add, want %d", inner.Generation(), s.Generation(), gen+1)
	}
	if n := inner.NumItems(); n != items.Rows()+2 {
		t.Fatalf("inner holds %d items after a torn add of 2 to %d", n, items.Rows())
	}
}

// TestRateFaultNamesItsCall: a rate-drawn fault carries the call number it
// fired on, like a scheduled one.
func TestRateFaultNamesItsCall(t *testing.T) {
	inner, _ := built(t)
	s := Wrap(inner, Plan{Rate: 1, Kinds: []Kind{KindPanic}})
	for call := 1; call <= 2; call++ {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			s.Query([]int{0}, 3)
			return ""
		}()
		if want := fmt.Sprintf("(query call %d)", call); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not name %s", msg, want)
		}
	}
}
