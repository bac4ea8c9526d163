package shard

import (
	"bytes"
	"fmt"
	"io"

	"optimus/internal/mips"
	"optimus/internal/parallel"
	"optimus/internal/persist"
)

// Kind is the composite manifest's snapshot kind string.
const Kind = "Sharded"

func init() {
	persist.Register(Kind, func() persist.LoadSaver { return New(Config{}) })
}

// Save implements mips.Persister: a composite manifest (format version and
// checksums from the persist framing, shard cutoffs, per-shard plans and id
// maps, the Generation stamp) with each live sub-solver's own snapshot
// nested inside its shard section. The manifest is the shard-shipping unit
// the distributed follow-on needs — one shard section plus the corpus is
// everything a remote worker requires to serve that shard.
//
// Each nested sub-solver stream embeds its own copy of the user matrix
// (sub-solvers are self-contained snapshots); for S shards the users are
// stored S+1 times. At the repository's shard counts this is an accepted
// size cost, noted here so a future delta format knows what to dedupe.
func (s *Sharded) Save(w io.Writer) error {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.items == nil {
		return fmt.Errorf("shard: Save before Build")
	}
	pw, err := persist.NewWriter(w, Kind)
	if err != nil {
		return err
	}
	pw.Section("manifest", func(e *persist.Encoder) {
		e.U64(s.gen)
		e.String(s.name)
		if s.headFirst {
			e.U8(1)
		} else {
			e.U8(0)
		}
		e.F64s(s.normFloor)
		e.Int(s.mstats.Mutations)
		e.Int(s.mstats.Patches)
		e.Int(s.mstats.Rebuilds)
		e.Int(s.mstats.Emptied)
		e.Int(len(s.shards))
	})
	pw.Section("corpus", func(e *persist.Encoder) {
		e.Matrix(s.users)
		e.Matrix(s.items)
	})
	for i := range s.shards {
		sh := &s.shards[i]
		var nested []byte
		if sh.count > 0 {
			if !sh.caps.Snapshots {
				return fmt.Errorf("shard %d: sub-solver %s does not implement Save", i, sh.plan)
			}
			// Worker-sourced bytes: a dialed worker snapshots its own state,
			// so the manifest always records what the shard actually serves.
			b, err := sh.w.Snapshot()
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			nested = b
		}
		pw.Section(fmt.Sprintf("shard%d", i), func(e *persist.Encoder) {
			e.String(sh.plan)
			e.Int(sh.builds)
			e.Int(sh.base)
			e.Int(sh.count)
			if sh.ids != nil {
				e.U8(1)
				e.Ints(sh.ids)
			} else {
				e.U8(0)
			}
			e.Bytes(nested)
		})
	}
	// The requested wave schedule rides as an *optional trailing* section:
	// written only when it differs from AutoSchedule, so default-config
	// snapshots stay byte-identical to the pinned v1 goldens, and older
	// readers (whose Close ignores trailing sections) still load
	// schedule-bearing snapshots — additive evolution, no version bump.
	if s.cfg.Schedule != AutoSchedule {
		pw.Section("schedule", func(e *persist.Encoder) {
			e.String(s.cfg.Schedule.String())
		})
	}
	return pw.Close()
}

// Load implements mips.Persister. Sub-solvers are reconstructed through the
// persist registry, so the packages providing the manifest's solver kinds
// must be imported (importing the root optimus package registers them all).
// The receiver keeps its Config — Factory, Planner, and Partitioner matter
// only for future Build/mutation calls, while the restored structure
// (including the head-first marker and routing floors) comes from the
// manifest.
//
// The whole manifest is parsed and validated first, serially; then every
// live shard boots from its section at once (Config.Threads workers), each
// section decoded exactly once, by its worker. A failed Load closes every
// worker it booted and leaves the receiver unchanged; when several shards
// fail, the lowest-index shard's error is returned.
func (s *Sharded) Load(r io.Reader) error {
	pr, err := persist.NewReader(r, Kind)
	if err != nil {
		return err
	}
	d := pr.Section("manifest")
	gen := d.U64()
	name := d.String()
	headFirst := d.U8()
	normFloor := d.F64s()
	var mstats MutationStats
	mstats.Mutations = d.Int()
	mstats.Patches = d.Int()
	mstats.Rebuilds = d.Int()
	mstats.Emptied = d.Int()
	nShards := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if headFirst > 1 {
		return fmt.Errorf("shard: manifest head-first flag %d invalid", headFirst)
	}
	if nShards < 1 || nShards > 1<<20 {
		return fmt.Errorf("shard: manifest claims %d shards", nShards)
	}
	d = pr.Section("corpus")
	users := d.Matrix()
	items := d.Matrix()
	if err := d.Err(); err != nil {
		return err
	}
	if err := mips.ValidateInputs(users, items); err != nil {
		return err
	}
	nItems := items.Rows()

	shards := make([]shardState, nShards)
	sections := make([][]byte, nShards)
	parts := make([][]int, 0, nShards)
	for i := 0; i < nShards; i++ {
		d = pr.Section(fmt.Sprintf("shard%d", i))
		sh := &shards[i]
		sh.plan = d.String()
		sh.builds = d.Int()
		sh.base = d.Int()
		sh.count = d.Int()
		hasIDs := d.U8()
		if hasIDs == 1 {
			sh.ids = d.Ints()
		} else if hasIDs != 0 {
			return fmt.Errorf("shard %d: manifest id-map flag %d invalid", i, hasIDs)
		}
		nested := d.Bytes()
		if err := d.Err(); err != nil {
			return err
		}
		if sh.count > nItems {
			return fmt.Errorf("shard %d: manifest count %d exceeds %d items", i, sh.count, nItems)
		}
		if sh.ids != nil {
			if len(sh.ids) != sh.count {
				return fmt.Errorf("shard %d: manifest has %d ids for count %d", i, len(sh.ids), sh.count)
			}
			for p, id := range sh.ids {
				if id < 0 || id >= nItems {
					return fmt.Errorf("shard %d: manifest id %d out of range [0,%d)", i, id, nItems)
				}
				if p > 0 && id <= sh.ids[p-1] {
					return fmt.Errorf("shard %d: manifest ids not strictly ascending at position %d", i, p)
				}
			}
		} else if sh.count > 0 {
			if sh.base < 0 || sh.base > nItems-sh.count {
				return fmt.Errorf("shard %d: manifest range [%d,%d) outside [0,%d)", i, sh.base, sh.base+sh.count, nItems)
			}
		}
		if sh.count == 0 {
			if len(nested) != 0 {
				return fmt.Errorf("shard %d: manifest embeds a solver in a dead shard", i)
			}
			continue
		}
		sections[i] = nested
		ids := sh.ids
		if ids == nil {
			ids = identityRange(sh.base, sh.base+sh.count)
		}
		parts = append(parts, ids)
	}
	// Optional trailing schedule section (see Save): absent in pre-schedule
	// and default-config snapshots, which load as AutoSchedule. So do the
	// retired "cascade" and "pipelined" schedules older snapshots may name.
	schedule := AutoSchedule
	if d, ok := pr.SectionIf("schedule"); ok {
		name := d.String()
		if err := d.Err(); err != nil {
			return err
		}
		if name != "cascade" && name != "pipelined" {
			if schedule, err = ParseSchedule(name); err != nil {
				return err
			}
		}
	}
	// Older snapshots may end in a "drift" section (a scan/user baseline no
	// reader uses any more); Close skips it like any trailing section.
	if err := pr.Close(); err != nil {
		return err
	}
	if err := validatePartition(parts, nItems); err != nil {
		return fmt.Errorf("shard: manifest: %w", err)
	}
	if headFirst == 1 && len(normFloor) != nShards {
		return fmt.Errorf("shard: manifest has %d routing floors for %d shards", len(normFloor), nShards)
	}
	if headFirst == 0 && len(normFloor) != 0 {
		return fmt.Errorf("shard: manifest carries routing floors without the head-first marker")
	}

	// Placement through the manifest: each shard section is the shipping
	// unit, so every live shard's worker boots from exactly these bytes —
	// dialed under a dialer, decoded in process otherwise — and nothing
	// else decodes them.
	var snaps [][]byte
	if s.cfg.RetainShardSnapshots {
		// The nested per-shard streams are exactly the snapshot sections the
		// background reviver (health.go) restores from; retaining them at
		// Load costs a copy, not a re-serialization.
		snaps = make([][]byte, nShards)
	}
	err = parallel.ForErrThreads(s.cfg.Threads, nShards, 1, func(lo, hi int) error {
		var first error
		for i := lo; i < hi; i++ {
			if sections[i] == nil {
				continue
			}
			if e := s.bootShard(&shards[i], i, sections[i]); e != nil {
				if first == nil {
					first = e
				}
				continue
			}
			if snaps != nil {
				// The section is a view of the whole restored stream; a
				// clone pins only this shard's bytes.
				snaps[i] = bytes.Clone(sections[i])
			}
		}
		return first
	})
	if err != nil {
		discard(shards...)
		return err
	}

	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	s.epoch++
	s.users, s.items, s.shards = users, items, shards
	s.userNorms = users.RowNorms()
	s.resetHealth(nShards)
	s.snaps = snaps
	s.name = name
	s.gen = gen
	s.cfg.Schedule = schedule
	s.headFirst = headFirst == 1
	s.normFloor = normFloor
	s.mstats = mstats
	s.refreshComposite()
	return nil
}
