package serving

import (
	"bytes"
	"fmt"
	"io"

	"optimus/internal/mips"
	"optimus/internal/mutlog"
	"optimus/internal/persist"
)

// Kind is the server snapshot's kind string. A server snapshot wraps the
// solver's own snapshot with the serving-side recovery state: the catalog
// generation and the mutation-log watermark the WAL replays against.
const Kind = "Server"

// Snapshot writes a restorable image of the server: the solver's index at
// the current flush boundary, the serving generation, and the journal
// watermark. The solver must implement mips.Persister.
//
// On a server with an attached mutation log the snapshot is taken under the
// log's lock — the snapshot-at-flush-boundary rule: no flush can apply and
// no event can enqueue while the image is written, so the solver state
// matches the embedded watermark exactly (this is also why the snapshot
// must not be taken from inside a Mutate callback, and why direct Mutate
// calls on a logged server void recovery just as they void the log's
// bookkeeping). Without a log, the solver read-lock excludes Mutate for
// the duration instead, and the watermark is zero.
func (s *Server) Snapshot(w io.Writer) error {
	p, ok := s.solver.(mips.Persister)
	if !ok {
		return fmt.Errorf("serving: solver %s does not support snapshots (mips.Persister)", s.solver.Name())
	}
	s.mu.Lock()
	log := s.log
	s.mu.Unlock()
	if log != nil {
		return log.Snapshot(func(appliedSeq uint64) error {
			return s.writeSnapshot(w, p, appliedSeq)
		})
	}
	s.solverMu.RLock()
	defer s.solverMu.RUnlock()
	return s.writeSnapshot(w, p, 0)
}

func (s *Server) writeSnapshot(w io.Writer, p mips.Persister, appliedSeq uint64) error {
	s.mu.Lock()
	gen := s.generation
	s.mu.Unlock()
	pw, err := persist.NewWriter(w, Kind)
	if err != nil {
		return err
	}
	pw.Section("server", func(e *persist.Encoder) {
		e.U64(gen)
		e.U64(appliedSeq)
	})
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return err
	}
	pw.Section("solver", func(e *persist.Encoder) {
		e.Bytes(buf.Bytes())
	})
	return pw.Close()
}

// Restore builds a server from a Snapshot stream. When solver is nil the
// embedded solver snapshot is reconstructed through the persist registry
// (its package must be imported — the root optimus package imports them
// all); otherwise the snapshot is loaded into the given solver, whose
// runtime configuration (threads, batching knobs) is kept. The restored
// server resumes at the snapshot's generation; feed the crashed
// incarnation's journal to Replay to roll forward to the pre-crash state.
func Restore(r io.Reader, solver mips.Solver, cfg Config) (*Server, error) {
	pr, err := persist.NewReader(r, Kind)
	if err != nil {
		return nil, err
	}
	d := pr.Section("server")
	gen := d.U64()
	appliedSeq := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	d = pr.Section("solver")
	payload := d.Bytes()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := pr.Close(); err != nil {
		return nil, err
	}
	if solver == nil {
		ls, err := persist.LoadAny(persist.FromBytes(payload))
		if err != nil {
			return nil, err
		}
		solver, ok := ls.(mips.Solver)
		if !ok {
			return nil, fmt.Errorf("serving: snapshot holds a %T, not a solver", ls)
		}
		return newRestored(solver, cfg, gen, appliedSeq)
	}
	p, ok := solver.(mips.Persister)
	if !ok {
		return nil, fmt.Errorf("serving: solver %s does not support snapshots (mips.Persister)", solver.Name())
	}
	if err := p.Load(persist.FromBytes(payload)); err != nil {
		return nil, err
	}
	return newRestored(solver, cfg, gen, appliedSeq)
}

func newRestored(solver mips.Solver, cfg Config, gen, appliedSeq uint64) (*Server, error) {
	srv, err := New(solver, cfg)
	if err != nil {
		return nil, err
	}
	srv.mu.Lock()
	srv.generation = gen
	srv.snapshotSeq = appliedSeq
	srv.mu.Unlock()
	return srv, nil
}

// Replay completes crash recovery on a restored server: it attaches a
// mutation log (as Log would) and feeds it the crashed incarnation's
// journal. Records already reflected in the snapshot are skipped; later
// events re-enqueue and every recorded flush boundary applies where the
// original run applied it, so the server rolls forward through the same
// generations to the exact pre-crash state — with events past the last
// flush marker left pending, within the staleness bound the log's
// MaxDelay promises.
//
// cfg.Journal, when set, should be a fresh journal (journal rotation): the
// replayed events are re-journaled into it with sequence numbers seeded
// above the snapshot watermark, so the new journal plus a new snapshot
// supersede the old pair. Appending to the crashed journal instead would
// duplicate its tail. The returned log is the attached log; close it (or
// the server) as usual.
func (s *Server) Replay(journal io.Reader, cfg mutlog.Config) (*mutlog.Log, mutlog.ReplayStats, error) {
	log, err := s.Log(cfg)
	if err != nil {
		return nil, mutlog.ReplayStats{}, err
	}
	s.mu.Lock()
	afterSeq := s.snapshotSeq
	s.mu.Unlock()
	if err := log.SeedSeq(afterSeq); err != nil {
		return log, mutlog.ReplayStats{}, err
	}
	st, err := mutlog.Replay(journal, afterSeq, log)
	return log, st, err
}
