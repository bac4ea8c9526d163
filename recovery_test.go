package optimus

// Crash-consistency property test for WAL-backed recovery. A scripted
// mutation workload runs against a served index with a journal attached;
// the journal length after every event is a potential kill point (a crash
// truncates the journal at — or inside — a record boundary). For every kill
// point at or after the mid-script snapshot, the recovery path
// (Restore + Replay of the surviving journal) must reproduce exactly what a
// process that never crashed would hold after the same prefix of history:
// same catalog generation, same item count, same answers for every user.
// Kill points inside a record additionally pin the torn-tail contract:
// replay stops tolerantly (Truncated), holding the state of the last
// complete record.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"optimus/internal/mutlog"
	"optimus/internal/serving"
)

func recoveryServerConfig() ServerConfig {
	return ServerConfig{MaxBatch: 8}
}

func recoveryLogConfig(journal *bytes.Buffer) MutationLogConfig {
	cfg := MutationLogConfig{MaxEvents: -1, MaxDelay: -1}
	if journal != nil {
		cfg.Journal = journal
	}
	return cfg
}

// serverAnswers queries every user through the serving path.
func serverAnswers(t *testing.T, srv *Server, nUsers, k int) [][]Entry {
	t.Helper()
	out := make([][]Entry, nUsers)
	for u := 0; u < nUsers; u++ {
		res, err := srv.Query(context.Background(), u, k)
		if err != nil {
			t.Fatalf("user %d: %v", u, err)
		}
		out[u] = res
	}
	return out
}

func TestCrashRecoveryProperty(t *testing.T) {
	users := lcgMatrix(24, 6, 17)
	items := lcgMatrix(80, 6, 41)
	arrivals := lcgMatrix(64, 6, 59)
	const k = 5
	mkSolver := func() Solver { return NewLEMP(LEMPConfig{Seed: 1}) }

	// --- The original run: scripted events, journal attached. ---
	solver := mkSolver()
	if err := solver.Build(users, items); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(solver, recoveryServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer
	log, err := srv.Log(recoveryLogConfig(&journal))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(97))
	vs := items.Rows() // virtual corpus size the next remove may refer to
	next := 0          // arrival cursor
	var boundaries []int
	var snap bytes.Buffer
	snapLen := -1
	const steps = 18
	for step := 0; step < steps; step++ {
		switch {
		case step%4 == 3:
			if err := log.Flush(); err != nil {
				t.Fatalf("step %d flush: %v", step, err)
			}
		case step%2 == 0 && next+3 <= arrivals.Rows():
			n := 1 + rng.Intn(3)
			if _, err := log.Add(arrivals.RowSlice(next, next+n)); err != nil {
				t.Fatalf("step %d add: %v", step, err)
			}
			next += n
			vs += n
		default:
			n := 1 + rng.Intn(2)
			ids := rng.Perm(vs)[:n]
			if err := log.Remove(ids); err != nil {
				t.Fatalf("step %d remove: %v", step, err)
			}
			vs -= n
		}
		boundaries = append(boundaries, journal.Len())
		if step == 7 { // right after the second flush: mid-script snapshot
			if err := srv.Snapshot(&snap); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			snapLen = journal.Len()
		}
	}
	srv.Close() // flushes the pending tail, appending the final marker
	boundaries = append(boundaries, journal.Len())
	history := journal.Bytes()
	if snapLen < 0 {
		t.Fatal("script never snapshotted")
	}

	// reference replays history[:kp] into a never-crashed twin and returns
	// its server (caller closes).
	reference := func(t *testing.T, kp int) *Server {
		t.Helper()
		ref := mkSolver()
		if err := ref.Build(users, items); err != nil {
			t.Fatal(err)
		}
		refSrv, err := NewServer(ref, recoveryServerConfig())
		if err != nil {
			t.Fatal(err)
		}
		refLog, err := refSrv.Log(recoveryLogConfig(nil))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mutlog.Replay(bytes.NewReader(history[:kp]), 0, refLog); err != nil {
			t.Fatalf("reference replay: %v", err)
		}
		return refSrv
	}

	compare := func(t *testing.T, restored, ref *Server) {
		t.Helper()
		rs, fs := restored.Stats(), ref.Stats()
		if rs.Generation != fs.Generation {
			t.Fatalf("generation: restored %d, never-crashed %d", rs.Generation, fs.Generation)
		}
		if restored.NumItems() != ref.NumItems() {
			t.Fatalf("items: restored %d, never-crashed %d", restored.NumItems(), ref.NumItems())
		}
		want := serverAnswers(t, ref, users.Rows(), k)
		got := serverAnswers(t, restored, users.Rows(), k)
		sameEntries(t, want, got)
	}

	for _, kp := range boundaries {
		if kp < snapLen {
			continue // a persisted snapshot implies the journal reached its watermark
		}
		t.Run(fmt.Sprintf("kill=%d", kp), func(t *testing.T) {
			restored, err := serving.Restore(bytes.NewReader(snap.Bytes()), nil, recoveryServerConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			_, st, err := restored.Replay(bytes.NewReader(history[:kp]), recoveryLogConfig(nil))
			if err != nil {
				t.Fatal(err)
			}
			if st.Truncated {
				t.Fatalf("boundary kill point reported a torn tail: %+v", st)
			}
			ref := reference(t, kp)
			defer ref.Close()
			compare(t, restored, ref)
		})

		// Torn tail: a few bytes of the next record survive. Replay must
		// stop at the last complete record — the boundary state.
		if kp+5 <= len(history) {
			t.Run(fmt.Sprintf("kill=%d+torn", kp), func(t *testing.T) {
				restored, err := serving.Restore(bytes.NewReader(snap.Bytes()), nil, recoveryServerConfig())
				if err != nil {
					t.Fatal(err)
				}
				defer restored.Close()
				_, st, err := restored.Replay(bytes.NewReader(history[:kp+5]), recoveryLogConfig(nil))
				if err != nil {
					t.Fatal(err)
				}
				if !st.Truncated {
					t.Fatalf("mid-record kill point not reported as torn: %+v", st)
				}
				ref := reference(t, kp)
				defer ref.Close()
				compare(t, restored, ref)
			})
		}
	}
}

// TestRestoreIntoConfiguredSolver pins the second Restore mode: loading the
// snapshot into a caller-provided solver keeps that solver's runtime
// configuration while taking all index state from the stream.
func TestRestoreIntoConfiguredSolver(t *testing.T) {
	users, items := persistCorpus()
	const k = 5
	solver := NewLEMP(LEMPConfig{Seed: 1})
	if err := solver.Build(users, items); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(solver, recoveryServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var snap bytes.Buffer
	if err := srv.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	want := serverAnswers(t, srv, users.Rows(), k)

	into := NewLEMP(LEMPConfig{Seed: 1, Threads: 2})
	restored, err := RestoreServer(bytes.NewReader(snap.Bytes()), into, recoveryServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	got := serverAnswers(t, restored, users.Rows(), k)
	sameEntries(t, want, got)
}
