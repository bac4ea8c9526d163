// Command benchmark is the repository's benchmark: four seeded workloads,
// end-to-end metrics measured untraced, per-layer metrics from a traced run,
// every answer checked against mips.Naive. See README.md in this directory.
//
//	go run ./benchmark                                  all workloads, untraced then traced
//	go run ./benchmark -out benchmark/results/BENCH_11.json -trace spans.json
//	go run ./benchmark -smoke                           tiny corpora, seconds per run
//	go run ./benchmark compare a.json b.json            per-metric verdicts between two result files
//	go run ./benchmark --workload serve-wired --seed 3 --seconds 18 --trace 0
//
// The last form is what the benchmark driver runs (through run.sh): one
// workload, one run, one JSON line on standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this workload once and print the driver's JSON line (default: all workloads, untraced then traced)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs: dataset offsets, Poisson schedule, zipf draws, churn picks")
	seconds := fs.Float64("seconds", 0, "length of each run's measured phase (default 30, or 0.6 with -smoke)")
	trace := fs.String("trace", "0", `"0": end-to-end (untraced) run; "1": per-layer (traced) run; any other value: file the full run writes its spans to`)
	smoke := fs.Bool("smoke", false, "tiny corpora (scale 0.05) and sub-second phases")
	out := fs.String("out", "", "result file the full run writes (e.g. benchmark/results/BENCH_11.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds == 0 {
		*seconds = 30
		if *smoke {
			*seconds = 0.6
		}
	}

	if *workload != "" {
		w, ok := workloadByName(*workload)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		if *trace != "0" && *trace != "1" {
			fmt.Fprintf(stderr, "benchmark: with -workload, -trace is 0 or 1, got %q\n", *trace)
			return 2
		}
		r, err := run(runOpts{workload: w, seed: *seed, seconds: *seconds, traced: *trace == "1", smoke: *smoke})
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
			return 1
		}
		line, err := json.Marshal(driverResult(r))
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if r.Wrong > 0 {
			fmt.Fprintf(stderr, "benchmark: %s: %d answers differ from mips.Naive\n", w.Name, r.Wrong)
			return 1
		}
		return 0
	}

	spansPath := ""
	if *trace != "0" && *trace != "1" {
		spansPath = *trace
	}
	rf, spans, err := runAll(*seed, *seconds, *smoke, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := writeJSON(*out, rf); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if spansPath != "" {
		if err := writeJSON(spansPath, spans); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	var attempted, failed int64
	correct := true
	for _, w := range rf.Workloads {
		attempted += w.Attempted
		failed += w.Failed
		correct = correct && w.Correct
	}
	fmt.Fprintf(stdout, `{"workloads": %d, "attempted": %d, "failed": %d, "correct": %t, "claim": null}`+"\n",
		len(rf.Workloads), attempted, failed, correct)
	if !correct {
		return 1
	}
	return 0
}

// runAll is the full run: every workload untraced (end-to-end metrics) and
// then traced (per-layer metrics), printed as it goes.
func runAll(seed int64, seconds float64, smoke bool, stdout io.Writer) (*resultFile, []spanJSON, error) {
	pinThreads()
	rf := &resultFile{Schema: resultSchema, Env: describeEnv(seed, seconds, smoke)}
	fmt.Fprintf(stdout, "optimus benchmark: %s %s/%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s seed=%d seconds=%g\n",
		rf.Env.Go, rf.Env.OS, rf.Env.Arch, rf.Env.GOMAXPROCS, rf.Env.NProc, rf.Env.CPU, rf.Env.Commit, seed, seconds)
	var spans []spanJSON
	for _, w := range workloads {
		o := runOpts{workload: w, seed: seed, seconds: seconds, smoke: smoke}
		plain, err := run(o)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		o.traced = true
		traced, err := run(o)
		if err != nil {
			return nil, nil, fmt.Errorf("%s (traced): %w", w.Name, err)
		}
		plain.fill(endToEnd)
		traced.fill(perLayer)
		wr := mergeRuns(w, plain, traced)
		rf.Workloads = append(rf.Workloads, wr)
		base := int32(0)
		if n := len(spans); n > 0 {
			base = spans[n-1].ID
		}
		spans = append(spans, toSpanJSON(w.Name, traced.Spans, base)...)

		fmt.Fprintf(stdout, "\n%s — %s\n", w.Name, w.Why)
		fmt.Fprintf(stdout, "  attempted=%d failed=%d correct=%t", wr.Attempted, wr.Failed, wr.Correct)
		for _, k := range sortedKeys(wr.Notes) {
			fmt.Fprintf(stdout, " %s=%s", k, wr.Notes[k])
		}
		fmt.Fprintln(stdout)
		printTable(stdout, "end to end (untraced run)", endToEnd, wr.EndToEnd)
		printTable(stdout, "per layer (traced run)", perLayer, wr.PerLayer)
	}
	fmt.Fprintln(stdout)
	return rf, spans, nil
}
