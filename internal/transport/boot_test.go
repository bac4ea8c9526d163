package transport_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"optimus/internal/fexipro"
	"optimus/internal/lemp"
	"optimus/internal/mips"
	"optimus/internal/persist"
	"optimus/internal/shard"
	"optimus/internal/transport"
)

// countedKind is a LEMP whose snapshot wraps LEMP's own in one section, so
// every decode of a shard section made of it is counted.
const countedKind = "transport_test.Counted"

// notSolverKind is a registered snapshot kind that is not a solver.
const notSolverKind = "transport_test.NotSolver"

var countedLoads atomic.Int64

func init() {
	persist.Register(countedKind, func() persist.LoadSaver { return &counted{Index: lemp.New(lemp.Config{Seed: 3})} })
	persist.Register(notSolverKind, func() persist.LoadSaver { return notSolver{} })
}

type counted struct{ *lemp.Index }

func (c *counted) Save(w io.Writer) error {
	inner, err := mips.SnapshotBytes(c.Index)
	if err != nil {
		return err
	}
	pw, err := persist.NewWriter(w, countedKind)
	if err != nil {
		return err
	}
	pw.Section("lemp", func(e *persist.Encoder) { e.Bytes(inner) })
	return pw.Close()
}

func (c *counted) Load(r io.Reader) error {
	countedLoads.Add(1)
	pr, err := persist.NewReader(r, countedKind)
	if err != nil {
		return err
	}
	inner := pr.Section("lemp").Bytes()
	if err := pr.Close(); err != nil {
		return err
	}
	return c.Index.Load(persist.FromBytes(inner))
}

type notSolver struct{}

func (notSolver) Save(w io.Writer) error {
	pw, err := persist.NewWriter(w, notSolverKind)
	if err != nil {
		return err
	}
	pw.Section("body", func(e *persist.Encoder) { e.U8(1) })
	return pw.Close()
}

func (notSolver) Load(r io.Reader) error {
	pr, err := persist.NewReader(r, notSolverKind)
	if err != nil {
		return err
	}
	pr.Section("body").U8()
	return pr.Close()
}

// countingDialer wraps a dialer, counting its dials per shard and the Close
// calls of the workers it returned.
type countingDialer struct {
	inner  shard.WorkerDialer
	mu     sync.Mutex
	dials  map[int]int
	closes atomic.Int64
}

func newCountingDialer(inner shard.WorkerDialer) *countingDialer {
	return &countingDialer{inner: inner, dials: map[int]int{}}
}

func (c *countingDialer) dial(si int, section []byte) (shard.Worker, error) {
	w, err := c.inner(si, section)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.dials[si]++
	c.mu.Unlock()
	return &closeCounted{Worker: w, closes: &c.closes}, nil
}

// dialed is the number of workers the dialer handed out.
func (c *countingDialer) dialed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, d := range c.dials {
		n += int64(d)
	}
	return n
}

type closeCounted struct {
	shard.Worker
	closes *atomic.Int64
}

func (w *closeCounted) Close() error {
	w.closes.Add(1)
	return w.Worker.Close()
}

func bootConfig(dialer shard.WorkerDialer) shard.Config {
	return shard.Config{
		Shards:       4,
		Partitioner:  shard.ByNorm(),
		Factory:      func() mips.Solver { return lemp.New(lemp.Config{Seed: 3}) },
		WorkerDialer: dialer,
	}
}

// editNested returns snap with the solver snapshot nested in section name
// (a manifest's shard%d section) replaced by edit's result; the section's
// length and CRC are rewritten, every other byte is kept.
func editNested(t *testing.T, snap []byte, name string, edit func(old []byte) []byte) []byte {
	t.Helper()
	pos := 10 + int(binary.LittleEndian.Uint16(snap[8:10])) // past the stream header
	for pos < len(snap) {
		nameLen := int(binary.LittleEndian.Uint16(snap[pos:]))
		bodyAt := pos + 2 + nameLen + 8
		bodyLen := int(binary.LittleEndian.Uint64(snap[pos+2+nameLen:]))
		end := bodyAt + bodyLen + 4
		if string(snap[pos+2:pos+2+nameLen]) != name {
			pos = end
			continue
		}
		body := snap[bodyAt : bodyAt+bodyLen]
		d := persist.NewDecoder(body)
		_ = d.String() // plan
		d.Int()        // builds
		d.Int()        // base
		d.Int()        // count
		if d.U8() == 1 {
			d.Ints()
		}
		old := d.Bytes()
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		nested := edit(bytes.Clone(old))
		newBody := append([]byte(nil), body[:len(body)-8-len(old)]...)
		newBody = binary.LittleEndian.AppendUint64(newBody, uint64(len(nested)))
		newBody = append(newBody, nested...)
		out := append([]byte(nil), snap[:pos+2+nameLen]...)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(newBody)))
		out = append(out, newBody...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(newBody))
		return append(out, snap[end:]...)
	}
	t.Fatalf("snapshot has no section %q", name)
	return nil
}

func saveBytes(t *testing.T, s *shard.Sharded) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsBadShardSections: a shard section whose solver holds a
// different item count than the manifest, whose kind is not a solver, or
// whose nested CRC is corrupt fails Load in process and through a loopback
// dialer alike. The error names the shard, the receiver keeps serving what
// it had, and every worker the failed Load dialed is closed.
func TestLoadRejectsBadShardSections(t *testing.T) {
	m := model(t, "netflix-nomad-25", 0.04)
	const k = 5
	src := shard.New(bootConfig(nil))
	if err := src.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	snap := saveBytes(t, src)

	// A solver over ten items: a valid section with the wrong count.
	small := lemp.New(lemp.Config{Seed: 3})
	if err := small.Build(m.Users, m.Items.SelectRows([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})); err != nil {
		t.Fatal(err)
	}
	wrongCount, err := mips.SnapshotBytes(small)
	if err != nil {
		t.Fatal(err)
	}
	var notSolverSnap bytes.Buffer
	if err := (notSolver{}).Save(&notSolverSnap); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		edit func(old []byte) []byte
		want string
	}{
		{"count", func([]byte) []byte { return wrongCount }, "manifest says"},
		{"kind", func([]byte) []byte { return notSolverSnap.Bytes() }, "not a solver"},
		{"crc", func(old []byte) []byte {
			old[len(old)-1] ^= 0x01 // the last section's stored checksum
			return old
		}, "checksum mismatch"},
	}
	for _, wired := range []bool{false, true} {
		for _, tc := range cases {
			mode := "in-process"
			if wired {
				mode = "loopback"
			}
			t.Run(mode+"/"+tc.name, func(t *testing.T) {
				var cd *countingDialer
				var dialer shard.WorkerDialer
				if wired {
					cd = newCountingDialer(transport.NewLoopback().Dialer())
					dialer = cd.dial
				}
				// The receiver holds a different composite (three shards).
				cfg := bootConfig(dialer)
				cfg.Shards = 3
				into := shard.New(cfg)
				if err := into.Build(m.Users, m.Items); err != nil {
					t.Fatal(err)
				}
				before := saveBytes(t, into)
				want, err := into.QueryAll(k)
				if err != nil {
					t.Fatal(err)
				}
				var dialedBefore int64
				if cd != nil {
					dialedBefore = cd.dialed()
				}

				err = into.Load(bytes.NewReader(editNested(t, snap, "shard2", tc.edit)))
				if err == nil {
					t.Fatal("Load accepted the bad section")
				}
				if !strings.Contains(err.Error(), "shard 2") || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("error %q does not name shard 2 and %q", err, tc.want)
				}
				if cd != nil {
					if dialed, closed := cd.dialed()-dialedBefore, cd.closes.Load(); closed != dialed {
						t.Fatalf("failed Load dialed %d workers and closed %d", dialed, closed)
					}
				}
				if after := saveBytes(t, into); !bytes.Equal(after, before) {
					t.Fatal("failed Load changed the receiver's snapshot")
				}
				got, err := into.QueryAll(k)
				if err != nil {
					t.Fatal(err)
				}
				if err := mips.SameRows(want, got); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestLoadBootsEachSectionOnce: restoring a four-shard composite decodes
// each shard section exactly once — by its dialed worker under a dialer,
// which is dialed once per shard, or in process without one.
func TestLoadBootsEachSectionOnce(t *testing.T) {
	m := model(t, "netflix-nomad-25", 0.04)
	cfg := bootConfig(nil)
	cfg.Factory = func() mips.Solver { return &counted{Index: lemp.New(lemp.Config{Seed: 3})} }
	src := shard.New(cfg)
	if err := src.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	snap := saveBytes(t, src)
	want, err := src.QueryAll(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, wired := range []bool{false, true} {
		var cd *countingDialer
		lcfg := cfg
		if wired {
			cd = newCountingDialer(transport.NewLoopback().Dialer())
			lcfg.WorkerDialer = cd.dial
		}
		into := shard.New(lcfg)
		loadsBefore := countedLoads.Load()
		if err := into.Load(bytes.NewReader(snap)); err != nil {
			t.Fatal(err)
		}
		if loads := countedLoads.Load() - loadsBefore; loads != 4 {
			t.Fatalf("wired=%v: restoring four shards decoded %d sections", wired, loads)
		}
		if cd != nil {
			for si := 0; si < 4; si++ {
				if n := cd.dials[si]; n != 1 {
					t.Fatalf("shard %d dialed %d times", si, n)
				}
			}
		}
		if !bytes.Equal(saveBytes(t, into), snap) {
			t.Fatalf("wired=%v: re-save differs from the loaded snapshot", wired)
		}
		got, err := into.QueryAll(5)
		if err != nil {
			t.Fatal(err)
		}
		if err := mips.SameRows(want, got); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailedBuildAndLoadCloseDialedWorkers: a dialer failing on shard 2 of 4
// fails Build and Load, and every worker they had dialed is closed.
func TestFailedBuildAndLoadCloseDialedWorkers(t *testing.T) {
	m := model(t, "netflix-nomad-25", 0.04)
	failing := func(cd *countingDialer) shard.WorkerDialer {
		return func(si int, section []byte) (shard.Worker, error) {
			if si == 2 {
				return nil, fmt.Errorf("refusing shard %d", si)
			}
			return cd.dial(si, section)
		}
	}
	cd := newCountingDialer(transport.NewLoopback().Dialer())
	if err := shard.New(bootConfig(failing(cd))).Build(m.Users, m.Items); err == nil {
		t.Fatal("Build succeeded with a failing dialer")
	}
	if dialed, closed := cd.dialed(), cd.closes.Load(); dialed != 3 || closed != 3 {
		t.Fatalf("failed Build dialed %d workers and closed %d, want 3 and 3", dialed, closed)
	}

	src := shard.New(bootConfig(nil))
	if err := src.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	cd = newCountingDialer(transport.NewLoopback().Dialer())
	into := shard.New(bootConfig(failing(cd)))
	if err := into.Load(bytes.NewReader(saveBytes(t, src))); err == nil || !strings.Contains(err.Error(), "shard 2") {
		t.Fatalf("Load with a dialer failing on shard 2: %v", err)
	}
	if dialed, closed := cd.dialed(), cd.closes.Load(); dialed != 3 || closed != 3 {
		t.Fatalf("failed Load dialed %d workers and closed %d, want 3 and 3", dialed, closed)
	}
}

// TestFailedStagingClosesStagedWorkers: FEXIPRO patches nothing in place,
// so every dirty shard of a by-norm composite over it rebuilds. An AddItems
// (copies of the largest- and smallest-norm items) and a RemoveItems (those
// two ids) each dirty shards 0 and 3, and the dialer refuses shard 3's
// rebuild. Each call fails, the composite answers == as before, and the
// rebuild staged for shard 0 is closed: dials == closes + the 4 live workers.
func TestFailedStagingClosesStagedWorkers(t *testing.T) {
	m := model(t, "netflix-nomad-25", 0.04)
	const k = 5
	var refuse atomic.Bool
	cd := newCountingDialer(transport.NewLoopback().Dialer())
	cfg := bootConfig(func(si int, section []byte) (shard.Worker, error) {
		if si == 3 && refuse.Load() {
			return nil, fmt.Errorf("refusing shard %d", si)
		}
		return cd.dial(si, section)
	})
	cfg.Factory = func() mips.Solver { return fexipro.New(fexipro.Config{}) }
	sh := shard.New(cfg)
	if err := sh.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	want, err := sh.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	norms := m.Items.RowNorms()
	hi, lo := 0, 0
	for i, n := range norms {
		if n > norms[hi] {
			hi = i
		}
		if n < norms[lo] {
			lo = i
		}
	}
	refuse.Store(true)
	for _, mut := range []struct {
		name string
		run  func() error
	}{
		{"AddItems", func() error {
			_, err := sh.AddItems(m.Items.SelectRows([]int{hi, lo}))
			return err
		}},
		{"RemoveItems", func() error { return sh.RemoveItems([]int{hi, lo}) }},
	} {
		if err := mut.run(); err == nil || !strings.Contains(err.Error(), "refusing shard 3") {
			t.Fatalf("%s with shard 3's rebuild refused: %v", mut.name, err)
		}
		if dialed, closed := cd.dialed(), cd.closes.Load(); dialed != closed+4 {
			t.Fatalf("failed %s: dialed %d workers and closed %d, want 4 live", mut.name, dialed, closed)
		}
		got, err := sh.QueryAll(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := mips.SameRows(want, got); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreAcrossThreadCounts: shards boot concurrently, yet a composite
// restored at Threads 1, 2 and 8 — in process or behind loopback workers —
// re-saves the bytes it loaded and answers identically.
func TestRestoreAcrossThreadCounts(t *testing.T) {
	m := model(t, "netflix-nomad-25", 0.04)
	const k = 5
	src := shard.New(bootConfig(nil))
	if err := src.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	snap := saveBytes(t, src)
	want, err := src.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, wired := range []bool{false, true} {
		for _, threads := range []int{1, 2, 8} {
			cfg := bootConfig(nil)
			cfg.Threads = threads
			if wired {
				cfg.WorkerDialer = transport.NewLoopback().Dialer()
			}
			into := shard.New(cfg)
			if err := into.Load(bytes.NewReader(snap)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saveBytes(t, into), snap) {
				t.Fatalf("wired=%v threads=%d: re-save differs from the loaded snapshot", wired, threads)
			}
			got, err := into.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			if err := mips.SameRows(want, got); err != nil {
				t.Fatal(err)
			}
		}
	}
}
