package optimus

// Corruption-hardening fuzzers for the snapshot readers. The contract under
// test: arbitrary bytes fed to Load produce either an error or a fully
// usable solver — never a panic, never unbounded allocation, never a solver
// that crashes when queried. Seeds cover the interesting neighborhoods:
// valid snapshots of every kind, truncations at framing boundaries, bit
// flips (caught by the section CRCs or the structural validators), and
// version skew. Every input loads through both reader paths — parsed in
// place, and read to EOF from a stream — and the two must agree. CI runs
// both targets with -fuzztime on every push.

import (
	"bytes"
	"io"
	"testing"

	"optimus/internal/persist"
	"optimus/internal/shard"
)

// fuzzSeeds builds one valid snapshot per kind plus mutated variants.
func fuzzSeeds(tb testing.TB) [][]byte {
	users, items := goldenCorpus()
	var seeds [][]byte
	for _, g := range goldenSolvers() {
		s := g.Make()
		if err := s.Build(users, items); err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveSolver(&buf, s); err != nil {
			tb.Fatal(err)
		}
		raw := buf.Bytes()
		seeds = append(seeds, raw)
		// Truncations: inside the header, inside a section header, mid-body.
		for _, n := range []int{0, 3, 9, 20, len(raw) / 2, len(raw) - 1} {
			if n >= 0 && n < len(raw) {
				seeds = append(seeds, raw[:n])
			}
		}
		// Bit flips in the header, the first section, and the payload middle.
		for _, pos := range []int{5, 16, len(raw) / 2, len(raw) - 5} {
			flipped := append([]byte(nil), raw...)
			flipped[pos] ^= 0x10
			seeds = append(seeds, flipped)
		}
		// Version skew.
		skewed := append([]byte(nil), raw...)
		skewed[4] = 2
		seeds = append(seeds, skewed)
	}
	seeds = append(seeds, []byte("OSNP"), []byte("not a snapshot at all"))
	return seeds
}

// fuzzCheck loads data through load twice: parsed in place (persist.FromBytes)
// and read to EOF from a stream that hides its length (io.ReadAll). The two
// must agree — both fail, or both load and re-save the same bytes. A loaded
// solver must then answer a query batch: any stream the reader accepts
// yields an internally consistent index.
func fuzzCheck(t *testing.T, data []byte, load func(io.Reader) (Solver, error)) {
	if len(data) > 1<<20 {
		return // bound fuzz memory; real snapshots at this corpus are ~KB
	}
	s, err := load(persist.FromBytes(data))
	streamed, errStreamed := load(struct{ io.Reader }{bytes.NewReader(data)}) // hides Len
	if (err == nil) != (errStreamed == nil) {
		t.Fatalf("in-place load: %v; streamed load: %v", err, errStreamed)
	}
	if err != nil {
		return
	}
	var a, b bytes.Buffer
	errA, errB := SaveSolver(&a, s), SaveSolver(&b, streamed)
	if (errA == nil) != (errB == nil) || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("re-saves differ: in place %d bytes (%v), streamed %d bytes (%v)", a.Len(), errA, b.Len(), errB)
	}
	res, err := s.QueryAll(2)
	if err != nil {
		return
	}
	_ = res
}

func FuzzLoadSolver(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzCheck(t, data, LoadSolver)
	})
}

// FuzzLoadManifest drives the sharded composite's Load directly — the
// manifest reader has its own validation surface (shard cutoffs, id-map
// partition coverage, nested sub-solver streams, routing floors) beyond
// what the registry dispatch exercises. Every input also loads through a
// loopback dialer, where each shard section is decoded only by its dialed
// worker: the two must agree — both fail, or both load and re-save the same
// bytes.
func FuzzLoadManifest(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	loader := func(dialer ShardWorkerDialer) func(io.Reader) (Solver, error) {
		return func(r io.Reader) (Solver, error) {
			sh := NewSharded(ShardedConfig{
				Shards:       2,
				Partitioner:  shard.ByNorm(),
				Factory:      func() Solver { return NewLEMP(LEMPConfig{Seed: 1}) },
				WorkerDialer: dialer,
			})
			if err := sh.Load(r); err != nil {
				return nil, err
			}
			return sh, nil
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzCheck(t, data, loader(nil))
		if len(data) > 1<<20 {
			return
		}
		local, err := loader(nil)(persist.FromBytes(data))
		wired, errWired := loader(NewLoopbackTransport().Dialer())(persist.FromBytes(data))
		if (err == nil) != (errWired == nil) {
			t.Fatalf("in-process load: %v; loopback load: %v", err, errWired)
		}
		if err != nil {
			return
		}
		var a, b bytes.Buffer
		errA, errB := SaveSolver(&a, local), SaveSolver(&b, wired)
		if (errA == nil) != (errB == nil) || !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("re-saves differ: in process %d bytes (%v), loopback %d bytes (%v)", a.Len(), errA, b.Len(), errB)
		}
		_, _ = wired.QueryAll(2)
	})
}
