package optimus

// Golden snapshot compatibility: testdata/golden holds one committed
// snapshot per kind, built from a fixed LCG corpus, plus load-only snapshots
// an older writer produced (TestGoldenLoadOnly). The test proves two
// properties CI pins on every run:
//
//  1. Wire-format stability — today's reader loads yesterday's bytes. A
//     change that breaks loading the committed files is a format break and
//     must bump persist.Version (with a migration path), not silently
//     reshape version 1.
//  2. Writer determinism — today's writer reproduces the committed bytes
//     exactly. Deterministic snapshots are what make the CI digest artifact
//     and content-addressed shard shipping meaningful. (Checked only where
//     the build's float math is platform-reproducible; see below.)
//
// Regenerate after an intentional, version-bumped format change with:
//
//	UPDATE_GOLDEN=1 go test -run TestGoldenSnapshots .

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/iotest"

	"optimus/internal/persist"
	"optimus/internal/shard"
)

// snapshotSources are the three ways a load gets its bytes: parsed in place
// (persist.FromBytes), one exactly sized read from a reader that reports its
// length, and io.ReadAll over a reader that hides it.
var snapshotSources = []struct {
	name string
	open func([]byte) io.Reader
}{
	{"FromBytes", persist.FromBytes},
	{"bytes.Reader", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"length-hiding", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
}

func goldenCorpus() (*Matrix, *Matrix) {
	return lcgMatrix(20, 8, 7), lcgMatrix(48, 8, 13)
}

func goldenSolvers() []struct {
	Name string
	Make func() Solver
} {
	return []struct {
		Name string
		Make func() Solver
	}{
		{"naive", func() Solver { return NewNaive() }},
		{"bmm", func() Solver { return NewBMM(BMMConfig{}) }},
		{"maximus", func() Solver { return NewMaximus(MaximusConfig{Seed: 1}) }},
		{"lemp", func() Solver { return NewLEMP(LEMPConfig{Seed: 1}) }},
		{"fexipro-si", func() Solver { return NewFexipro(FexiproConfig{Variant: FexiproSI}) }},
		{"fexipro-sir", func() Solver { return NewFexipro(FexiproConfig{Variant: FexiproSIR}) }},
		{"sharded", func() Solver {
			return NewSharded(ShardedConfig{
				Shards:      3,
				Partitioner: ShardByNorm(),
				Factory:     func() Solver { return NewLEMP(LEMPConfig{Seed: 1}) },
			})
		}},
	}
}

func TestGoldenSnapshots(t *testing.T) {
	users, items := goldenCorpus()
	const k = 5
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, g := range goldenSolvers() {
		t.Run(g.Name, func(t *testing.T) {
			built := g.Make()
			if err := built.Build(users, items); err != nil {
				t.Fatal(err)
			}
			want, err := built.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := SaveSolver(&buf, built); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", g.Name+".osnp")
			if update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, buf.Len())
				return
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
			}

			// Property 1: the committed bytes still load, through every
			// source a load reads from, the loaded index answers exactly
			// like a fresh build of the same corpus, and it re-saves to the
			// committed bytes.
			for _, src := range snapshotSources {
				loaded, err := LoadSolver(src.open(golden))
				if err != nil {
					t.Fatalf("%s: golden snapshot no longer loads — wire format break: %v", src.name, err)
				}
				got, err := loaded.QueryAll(k)
				if err != nil {
					t.Fatal(err)
				}
				sameEntries(t, want, got)
				if err := VerifyAll(users, items, got, k, 1e-8); err != nil {
					t.Fatal(err)
				}
				var resave bytes.Buffer
				if err := SaveSolver(&resave, loaded); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(resave.Bytes(), golden) {
					t.Fatalf("%s: re-saving the loaded golden gave %d bytes, not the committed %d", src.name, resave.Len(), len(golden))
				}
			}

			// Property 2: the writer reproduces the committed bytes. Index
			// construction runs float64 arithmetic that Go may contract into
			// FMA on some architectures, so the byte comparison pins the
			// architecture the goldens were generated on; the load check
			// above is architecture-independent.
			if runtime.GOARCH != "amd64" {
				t.Skipf("byte-equality check pinned to amd64 (running on %s)", runtime.GOARCH)
			}
			if !bytes.Equal(buf.Bytes(), golden) {
				t.Fatalf("snapshot bytes diverged from %s (%d bytes written vs %d committed); "+
					"if the format change is intentional, bump persist.Version and regenerate with UPDATE_GOLDEN=1",
					path, buf.Len(), len(golden))
			}
		})
	}
}

// TestGoldenLoadOnly loads committed snapshots that today's writer no
// longer reproduces but whose layout it still reads: each must load through
// every source, answer exactly like a fresh build of the golden corpus, and
// re-save to today's golden of its kind. maximus-sampled-blocks.osnp was
// written when MAXIMUS sized each cluster's first walk segment from sampled
// walks, so its block-size slot holds per-cluster values ([0 15 0 9 0 0 0
// 0]) where a fresh Save writes one constant.
func TestGoldenLoadOnly(t *testing.T) {
	users, items := goldenCorpus()
	const k = 5
	for _, g := range []struct{ file, kind string }{
		{"maximus-sampled-blocks.osnp", "maximus"},
	} {
		t.Run(g.file, func(t *testing.T) {
			var built Solver
			for _, gs := range goldenSolvers() {
				if gs.Name == g.kind {
					built = gs.Make()
				}
			}
			if err := built.Build(users, items); err != nil {
				t.Fatal(err)
			}
			want, err := built.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			old, err := os.ReadFile(filepath.Join("testdata", "golden", g.file))
			if err != nil {
				t.Fatal(err)
			}
			current, err := os.ReadFile(filepath.Join("testdata", "golden", g.kind+".osnp"))
			if err != nil {
				t.Fatal(err)
			}
			for _, src := range snapshotSources {
				loaded, err := LoadSolver(src.open(old))
				if err != nil {
					t.Fatalf("%s: load-only golden no longer loads: %v", src.name, err)
				}
				got, err := loaded.QueryAll(k)
				if err != nil {
					t.Fatal(err)
				}
				sameEntries(t, want, got)
				var resave bytes.Buffer
				if err := SaveSolver(&resave, loaded); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(resave.Bytes(), current) {
					t.Fatalf("%s: re-saving the load-only golden did not give %s.osnp", src.name, g.kind)
				}
			}
		})
	}
}

// TestGoldenVersionSkew pins the version policy: a version-1 reader must
// reject a stream stamped with any other version, cleanly.
func TestGoldenVersionSkew(t *testing.T) {
	users, items := goldenCorpus()
	built := NewNaive()
	if err := built.Build(users, items); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSolver(&buf, built); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, v := range []byte{0, 2, 255} {
		skewed := append([]byte(nil), raw...)
		skewed[4] = v // version field follows the 4-byte magic
		if _, err := LoadSolver(bytes.NewReader(skewed)); err == nil {
			t.Fatalf("version %d stream loaded under a version-1 reader", v)
		}
	}
	if _, err := LoadSolver(bytes.NewReader(raw)); err != nil {
		t.Fatalf("unskewed control failed: %v", err)
	}
}

// TestGoldenScheduleEvolution pins the additive-evolution contract of the
// wave-schedule section: the committed v1 sharded golden (written before
// schedules existed) still loads and resolves to two-wave, a re-save of it
// stays byte-identical (the default writes no schedule section), a
// schedule-bearing snapshot — the same stream plus one trailing section —
// round-trips the requested schedule with identical answers, and a stream
// naming the retired "cascade" schedule loads as auto and answers
// identically.
func TestGoldenScheduleEvolution(t *testing.T) {
	defer SetThreads(SetThreads(1))
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "sharded.osnp"))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSolver(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	sh, ok := loaded.(*Sharded)
	if !ok {
		t.Fatalf("sharded golden loaded as %T", loaded)
	}
	if sh.RequestedSchedule() != ScheduleAuto {
		t.Fatalf("pre-schedule golden requests %v, want auto", sh.RequestedSchedule())
	}
	if sh.ActiveSchedule() != ScheduleTwoWave {
		t.Fatalf("pre-schedule golden resolves to %v, want two-wave", sh.ActiveSchedule())
	}
	const k = 5
	want, err := sh.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}

	var resave bytes.Buffer
	if err := SaveSolver(&resave, sh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resave.Bytes(), golden) {
		t.Fatalf("re-saving the golden under the schedule-extended writer changed it "+
			"(%d bytes vs %d committed) — the default must write no schedule section",
			resave.Len(), len(golden))
	}

	if err := sh.SetSchedule(ScheduleSingle); err != nil {
		t.Fatal(err)
	}
	var extended bytes.Buffer
	if err := SaveSolver(&extended, sh); err != nil {
		t.Fatal(err)
	}
	if extended.Len() <= len(golden) || !bytes.Equal(extended.Bytes()[:len(golden)], golden) {
		t.Fatal("a schedule-bearing snapshot must be the golden stream plus a trailing section")
	}
	reloaded, err := LoadSolver(bytes.NewReader(extended.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sh2 := reloaded.(*Sharded)
	if sh2.RequestedSchedule() != ScheduleSingle || sh2.ActiveSchedule() != ScheduleSingle {
		t.Fatalf("reloaded schedule %v/%v, want single/single",
			sh2.RequestedSchedule(), sh2.ActiveSchedule())
	}
	got, err := sh2.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	sameEntries(t, want, got)

	// A snapshot written while the cascade schedule existed: the golden
	// plus a trailing "schedule" section naming it. The section's bytes are
	// what a writer emits after its header.
	var hdr, withSection bytes.Buffer
	if _, err := persist.NewWriter(&hdr, shard.Kind); err != nil {
		t.Fatal(err)
	}
	pw, err := persist.NewWriter(&withSection, shard.Kind)
	if err != nil {
		t.Fatal(err)
	}
	pw.Section("schedule", func(e *persist.Encoder) { e.String("cascade") })
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	retired := append(bytes.Clone(golden), withSection.Bytes()[hdr.Len():]...)
	reloaded, err = LoadSolver(bytes.NewReader(retired))
	if err != nil {
		t.Fatalf("a snapshot naming the retired cascade schedule must load: %v", err)
	}
	sh3 := reloaded.(*Sharded)
	if sh3.RequestedSchedule() != ScheduleAuto || sh3.ActiveSchedule() != ScheduleTwoWave {
		t.Fatalf("cascade snapshot loaded as %v/%v, want auto/two-wave",
			sh3.RequestedSchedule(), sh3.ActiveSchedule())
	}
	if got, err = sh3.QueryAll(k); err != nil {
		t.Fatal(err)
	}
	sameEntries(t, want, got)
}
