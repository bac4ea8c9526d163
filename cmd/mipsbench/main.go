// Command mipsbench regenerates the paper's evaluation artifacts on the
// synthetic reference models: its tables, figures and ablations. Each
// experiment id is one table or figure of the paper or one ablation study;
// `mipsbench -list` prints every id.
//
// Usage:
//
//	mipsbench [flags] <experiment|all>
//
// Examples:
//
//	mipsbench fig2                  # the motivating BMM-vs-index experiment
//	mipsbench -scale 1 fig5         # full-scale headline grid
//	mipsbench -models r2-nomad-50 fig8
//	mipsbench table2                # OPTIMUS end-to-end speedups
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"optimus/internal/bench"
	"optimus/internal/parallel"
)

func main() {
	var (
		scale   = flag.Float64("scale", 0.25, "dataset scale multiplier applied to the registry sizes")
		threads = flag.Int("threads", 0, "solver threads, 0 = all cores (fig6 sweeps its own)")
		ks      = flag.String("k", "1,5,10,50", "comma-separated top-K depths")
		seed    = flag.Int64("seed", 1, "experiment seed")
		models  = flag.String("models", "", "comma-separated registry models overriding the experiment default")
		verify  = flag.Bool("verify", false, "verify solver exactness during runs (slower)")
		repeats = flag.Int("repeats", 4, "measurement repetitions for variance experiments (fig7)")
		list    = flag.Bool("list", false, "list experiments, then exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mipsbench [flags] <experiment>\nexperiments: %s all\n\nflags:\n",
			strings.Join(bench.Experiments(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		fmt.Println("experiments:", strings.Join(bench.Experiments(), " "))
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	var kList []int
	for _, part := range strings.Split(*ks, ",") {
		var k int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &k); err != nil || k < 1 {
			fmt.Fprintf(os.Stderr, "mipsbench: bad -k element %q\n", part)
			os.Exit(2)
		}
		kList = append(kList, k)
	}
	var modelList []string
	if *models != "" {
		for _, m := range strings.Split(*models, ",") {
			modelList = append(modelList, strings.TrimSpace(m))
		}
	}
	if *threads <= 0 {
		*threads = runtime.GOMAXPROCS(0)
	}
	// One process-wide default: solvers constructed without an explicit
	// Threads setting follow the flag too.
	parallel.SetThreads(*threads)

	r := bench.New(bench.Options{
		Out:     os.Stdout,
		Scale:   *scale,
		Threads: *threads,
		Ks:      kList,
		Seed:    *seed,
		Verify:  *verify,
		Models:  modelList,
		Repeats: *repeats,
	})
	if err := r.Run(flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "mipsbench:", err)
		os.Exit(1)
	}
}
