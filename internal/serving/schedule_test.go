package serving

import (
	"context"
	"testing"

	"optimus/internal/lemp"
	"optimus/internal/mips"
	"optimus/internal/shard"
)

func buildSharded(t testing.TB) (*shard.Sharded, int) {
	t.Helper()
	_, users, items := buildSolver(t, 60, 90, 6)
	sh := shard.New(shard.Config{
		Shards:      3,
		Partitioner: shard.ByNorm(),
		Factory:     func() mips.Solver { return lemp.New(lemp.Config{Seed: 1}) },
	})
	if err := sh.Build(users, items); err != nil {
		t.Fatal(err)
	}
	return sh, users.Rows()
}

// TestServerSchedule pins the serving-layer schedule surface: a schedule set
// on the sharded solver before New is the one served, and Stats reports the
// active schedule and per-wave scan stats.
func TestServerSchedule(t *testing.T) {
	sh, nUsers := buildSharded(t)
	if err := sh.SetSchedule(shard.SingleWave); err != nil {
		t.Fatal(err)
	}
	srv, err := New(sh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for u := 0; u < nUsers; u += 7 {
		if _, err := srv.Query(context.Background(), u, 5); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Schedule != "single" {
		t.Fatalf("Stats.Schedule = %q, want single", st.Schedule)
	}
	if len(st.WaveScans) != 1 {
		t.Fatalf("%d wave-scan groups, want 1 (the single wave)", len(st.WaveScans))
	}
	var total int64
	for _, w := range st.WaveScans {
		total += w.Scanned
	}
	if total <= 0 {
		t.Fatal("no scans metered across waves")
	}
}

func TestServerScheduleDefaults(t *testing.T) {
	sh, _ := buildSharded(t)
	srv, err := New(sh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if st := srv.Stats(); st.Schedule != "two-wave" {
		t.Fatalf("default sharded schedule = %q, want two-wave", st.Schedule)
	}

	plain, _, _ := buildSolver(t, 20, 30, 4)
	srv2, err := New(plain, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if st := srv2.Stats(); st.Schedule != "" || st.WaveScans != nil {
		t.Fatalf("non-scheduling solver must report no schedule, got %q / %v", st.Schedule, st.WaveScans)
	}
}
