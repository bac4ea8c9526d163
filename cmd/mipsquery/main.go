// Command mipsquery answers batch top-K MIPS queries over matrices on disk
// using any solver in the repository, or the OPTIMUS optimizer.
//
// Usage:
//
//	mipsquery -users u.omx -items i.omx -k 10 -solver optimus
//	mipsquery -users u.csv -items i.csv -k 5 -solver maximus -user 42
//
// Matrix files may be OMX1 binary (.omx) or CSV (anything else). With -user
// it prints one user's ranking; otherwise it prints a summary and, with
// -out, writes all results as CSV rows "user,rank,item,score".
//
// -save writes the built index (in optimus mode, the winning strategy's
// index) as a versioned snapshot after answering; -snapshot loads a
// previously saved index instead of building — the user and item matrices
// are embedded in the snapshot, so -users/-items are not needed:
//
//	mipsquery -users u.omx -items i.omx -k 10 -solver lemp -save idx.osnp
//	mipsquery -snapshot idx.osnp -k 10 -user 42
//
// -shards N (N > 1) runs the chosen solver item-sharded under the by-norm
// partitioner, and -schedule selects the wave schedule (auto | single |
// two-wave) — cross-shard threshold propagation, or the blind fan-out.
// -schedule alone also re-schedules a sharded -snapshot:
//
//	mipsquery -users u.omx -items i.omx -k 10 -solver lemp -shards 4 -schedule two-wave
//	mipsquery -snapshot sharded.osnp -k 10 -schedule single
//
// -timeout bounds the whole batch with a context deadline (the run fails
// with a deadline error instead of overstaying), and -partial answers a
// sharded run in degraded mode — healthy shards only — printing the
// coverage report (answered shards, skipped shards, items covered):
//
//	mipsquery -users u.omx -items i.omx -k 10 -solver bmm -shards 4 -timeout 500ms -partial
//
// -transport loopback runs a sharded build or a sharded snapshot through
// the worker wire path: every coordinator↔worker exchange crosses the
// length-prefixed wire codec in-process (a snapshot's shard sections ship
// to and boot their dialed workers — placement through the manifest), and
// the run reports the wire traffic at exit:
//
//	mipsquery -users u.omx -items i.omx -k 10 -solver bmm -shards 4 -transport loopback
//	mipsquery -snapshot sharded.osnp -k 10 -transport loopback
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"optimus/internal/core"
	"optimus/internal/fexipro"
	"optimus/internal/lemp"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/persist"
	"optimus/internal/shard"
	"optimus/internal/topk"
	"optimus/internal/transport"
)

func main() {
	var (
		usersPath = flag.String("users", "", "user matrix file (OMX1 .omx or CSV)")
		itemsPath = flag.String("items", "", "item matrix file (OMX1 .omx or CSV)")
		k         = flag.Int("k", 10, "top-K depth")
		solver    = flag.String("solver", "optimus", "bmm | maximus | lemp | fexipro-si | fexipro-sir | naive | optimus")
		user      = flag.Int("user", -1, "answer a single user id (default: all users)")
		threads   = flag.Int("threads", 0, "solver threads (0 = all cores)")
		outPath   = flag.String("out", "", "write all results as CSV to this path")
		seed      = flag.Int64("seed", 1, "seed for clustering/sampling")
		snapPath  = flag.String("snapshot", "", "load a saved index snapshot instead of building (-users/-items not needed)")
		savePath  = flag.String("save", "", "write the built index as a snapshot to this path")
		shards    = flag.Int("shards", 0, "item-shard the solver across this many by-norm shards (0/1 = unsharded)")
		schedule  = flag.String("schedule", "", "wave schedule for a sharded solver: auto | single | two-wave")
		timeout   = flag.Duration("timeout", 0, "query deadline (e.g. 500ms); the batch fails with a deadline error instead of running long")
		partial   = flag.Bool("partial", false, "degraded mode for a sharded solver: answer from healthy shards and print the coverage report")
		transp    = flag.String("transport", "", "worker transport for a sharded run: loopback (every coordinator-worker call crosses the wire codec in-process; default is direct)")
	)
	flag.Parse()
	dialer, wire, err := workerDialer(*transp)
	if err != nil {
		fatal(err)
	}
	if *snapPath == "" && (*usersPath == "" || *itemsPath == "") {
		fmt.Fprintln(os.Stderr, "mipsquery: -users and -items are required (or -snapshot)")
		flag.Usage()
		os.Exit(2)
	}

	var results [][]topk.Entry
	if *snapPath != "" {
		s, err := loadSnapshot(*snapPath, *threads, dialer)
		if err != nil {
			fatal(err)
		}
		if *schedule != "" {
			sh, ok := s.(*shard.Sharded)
			if !ok {
				fatal(fmt.Errorf("-schedule needs a sharded snapshot, got %s", s.Name()))
			}
			if err := sh.SetScheduleByName(*schedule); err != nil {
				fatal(err)
			}
			fmt.Printf("schedule %s (active %s)\n", *schedule, sh.ActiveScheduleName())
		}
		start := time.Now()
		results, err = runQueries(s, *k, *timeout, *partial)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("solved top-%d for %d users with restored %s index in %v\n",
			*k, len(results), s.Name(), time.Since(start).Round(time.Millisecond))
		if *savePath != "" {
			if err := saveSnapshot(*savePath, s); err != nil {
				fatal(err)
			}
		}
	} else {
		users, err := readMatrix(*usersPath)
		if err != nil {
			fatal(err)
		}
		items, err := readMatrix(*itemsPath)
		if err != nil {
			fatal(err)
		}
		var built mips.Solver
		start := time.Now()
		if *solver == "optimus" {
			if *shards > 1 {
				fatal(fmt.Errorf("-shards does not combine with -solver optimus (shard an explicit solver)"))
			}
			if *timeout > 0 || *partial || dialer != nil {
				fatal(fmt.Errorf("-timeout/-partial/-transport do not combine with -solver optimus (use an explicit solver)"))
			}
			opt := core.NewOptimus(core.OptimusConfig{Seed: *seed, Threads: *threads},
				core.NewMaximus(core.MaximusConfig{Seed: *seed, Threads: *threads}),
				lemp.New(lemp.Config{Seed: *seed, Threads: *threads}))
			dec, res, err := opt.Run(users, items, *k)
			if err != nil {
				fatal(err)
			}
			results = res
			built = opt.Solver(dec.Winner)
			fmt.Printf("optimus chose %s (sample %d users, overhead %v)\n",
				dec.Winner, dec.SampleSize, dec.Overhead.Round(time.Microsecond))
			for _, e := range dec.Estimates {
				total := "total="
				if e.Cut { // a lower bound: the sample race stopped it
					total = "cut, total>="
				}
				fmt.Printf("  estimate %-12s %s%v build=%v examined=%d\n",
					e.Solver, total, e.Total.Round(time.Microsecond), e.BuildTime.Round(time.Microsecond), e.Examined)
			}
		} else {
			s, err := newSolver(*solver, *threads, *seed)
			if err != nil {
				fatal(err)
			}
			if *shards > 1 {
				sh := shard.New(shard.Config{
					Shards:       *shards,
					Partitioner:  shard.ByNorm(),
					Threads:      *threads,
					WorkerDialer: dialer,
					Factory: func() mips.Solver {
						sub, _ := newSolver(*solver, *threads, *seed)
						return sub
					},
				})
				if *schedule != "" {
					if err := sh.SetScheduleByName(*schedule); err != nil {
						fatal(err)
					}
				}
				s = sh
			} else if *schedule != "" {
				fatal(fmt.Errorf("-schedule requires -shards > 1 (or a sharded -snapshot)"))
			} else if dialer != nil {
				fatal(fmt.Errorf("-transport requires -shards > 1 (or a sharded -snapshot)"))
			}
			if err := s.Build(users, items); err != nil {
				fatal(err)
			}
			if sh, ok := s.(*shard.Sharded); ok {
				fmt.Printf("sharded %d ways by norm, schedule %s\n", *shards, sh.ActiveScheduleName())
			}
			results, err = runQueries(s, *k, *timeout, *partial)
			if err != nil {
				fatal(err)
			}
			built = s
		}
		fmt.Printf("solved top-%d for %d users x %d items (f=%d) in %v\n",
			*k, users.Rows(), items.Rows(), users.Cols(), time.Since(start).Round(time.Millisecond))
		if *savePath != "" {
			if err := saveSnapshot(*savePath, built); err != nil {
				fatal(err)
			}
		}
	}

	if wire != nil {
		st := wire.Stats()
		fmt.Printf("wire: %d worker dial(s), %d call(s), %d B sent, %d B received\n",
			st.Dials, st.Calls, st.BytesSent, st.BytesReceived)
	}
	if *user >= 0 {
		if *user >= len(results) {
			fatal(fmt.Errorf("user %d out of range [0,%d)", *user, len(results)))
		}
		for rank, e := range results[*user] {
			fmt.Printf("%2d. item %-8d score %.6f\n", rank+1, e.Item, e.Score)
		}
	}
	if *outPath != "" {
		if err := writeResults(*outPath, results); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *outPath)
	}
}

// runQueries answers the full batch, honoring -timeout (a context deadline
// through the solver's QueryCtx) and -partial (degraded mode through
// QueryPartial, printing the coverage report).
func runQueries(s mips.Solver, k int, timeout time.Duration, partial bool) ([][]topk.Entry, error) {
	var ctx context.Context
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.Background(), timeout)
		defer cancel()
	}
	if partial {
		pq, ok := s.(mips.PartialQuerier)
		if !ok {
			return nil, fmt.Errorf("-partial: solver %s cannot degrade (shard it with -shards > 1)", s.Name())
		}
		results, cov, err := pq.QueryPartial(ctx, allUsers(s), k)
		if err != nil {
			return nil, err
		}
		fmt.Println("coverage:", cov.String())
		return results, nil
	}
	if ctx != nil {
		return s.QueryCtx(ctx, allUsers(s), k, mips.QueryOptions{})
	}
	return s.QueryAll(k)
}

// allUsers enumerates every built user id — the batch the flag-driven query
// paths answer (QueryAll without the flags).
func allUsers(s mips.Solver) []int {
	n := 0
	if sz, ok := s.(mips.Sized); ok {
		n = sz.NumUsers()
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func newSolver(name string, threads int, seed int64) (mips.Solver, error) {
	switch strings.ToLower(name) {
	case "bmm":
		return core.NewBMM(core.BMMConfig{Threads: threads}), nil
	case "maximus":
		return core.NewMaximus(core.MaximusConfig{Threads: threads, Seed: seed}), nil
	case "lemp":
		return lemp.New(lemp.Config{Threads: threads, Seed: seed}), nil
	case "fexipro-si":
		return fexipro.New(fexipro.Config{Variant: fexipro.SI, Threads: threads}), nil
	case "fexipro-sir":
		return fexipro.New(fexipro.Config{Variant: fexipro.SIR, Threads: threads}), nil
	case "naive":
		return mips.NewNaive(), nil
	default:
		return nil, fmt.Errorf("unknown solver %q", name)
	}
}

// workerDialer maps the -transport flag to a shard.WorkerDialer; the
// returned transport (loopback only, for now) meters the wire traffic the
// run reports at exit.
func workerDialer(name string) (shard.WorkerDialer, *transport.Loopback, error) {
	switch strings.ToLower(name) {
	case "":
		return nil, nil, nil
	case "loopback":
		lb := transport.NewLoopback()
		return lb.Dialer(), lb, nil
	default:
		return nil, nil, fmt.Errorf("unknown -transport %q (supported: loopback)", name)
	}
}

func loadSnapshot(path string, threads int, dialer shard.WorkerDialer) (mips.Solver, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// Under a worker transport, load through a dialing composite: each shard
	// section of the manifest ships to (and boots) its dialed worker. A
	// non-sharded snapshot fails the manifest's kind check with a clear error.
	if dialer != nil {
		sh := shard.New(shard.Config{Threads: threads, WorkerDialer: dialer})
		if err := sh.Load(persist.FromBytes(data)); err != nil {
			return nil, fmt.Errorf("-transport: %w (a worker transport needs a sharded snapshot)", err)
		}
		return sh, nil
	}
	ls, err := persist.LoadAny(persist.FromBytes(data))
	if err != nil {
		return nil, err
	}
	s, ok := ls.(mips.Solver)
	if !ok {
		return nil, fmt.Errorf("snapshot %s holds a %T, not a solver", path, ls)
	}
	if ts, ok := s.(mips.ThreadSetter); ok {
		ts.SetThreads(threads)
	}
	return s, nil
}

func saveSnapshot(path string, s mips.Solver) error {
	p, ok := s.(mips.Persister)
	if !ok {
		return fmt.Errorf("solver %s does not support snapshots", s.Name())
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := p.Save(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println("saved snapshot", path)
	return nil
}

func readMatrix(path string) (*mat.Matrix, error) {
	if strings.HasSuffix(path, ".omx") {
		return mat.ReadBinaryFile(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return mat.ReadCSV(f)
}

func writeResults(path string, results [][]topk.Entry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for u, entries := range results {
		for rank, e := range entries {
			fmt.Fprintf(w, "%d,%d,%d,%.17g\n", u, rank+1, e.Item, e.Score)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mipsquery:", err)
	os.Exit(1)
}
