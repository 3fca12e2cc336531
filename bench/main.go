// Command bench is the repository's epoch-time benchmark: it trains the same
// 2-layer GCN on the analytic engine, the in-process worker cluster and the
// socket fleet, and prints end-to-end and per-layer metrics by name. See
// README.md in this directory.
//
// The benchmark driver runs it one workload at a time:
//
//	bench --workload cluster-q8-10k --seed 1 --seconds 10 --trace 0
//
// Without --workload it runs the full set: three interleaved repetitions of
// all six workloads, with -trace a traced pass, with -repeat two sets and
// their gaps.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// childEnv marks a process as a repetition child. The package test re-execs
// the test binary with it set to get the same cold-process repetitions.
const childEnv = "SCGNN_BENCH_CHILD"

// childTimeout bounds one repetition; the driver allows a run 180 s.
const childTimeout = 170 * time.Second

// fullReps is the number of interleaved repetitions of a full set.
const fullReps = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	repeat   bool
	quick    bool
	child    bool
	out      string
	reps     int
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// parseArgs accepts the driver's "--trace 0|1" as well as a bare "-trace".
func parseArgs(args []string) (*options, error) {
	norm := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		norm = append(norm, a)
	}
	o := &options{}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run this one workload and end with the driver's result line")
	fs.Int64Var(&o.seed, "seed", 1, "the only input: dataset, partition, model init and perturbation derive from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "with -workload: after the first three repetitions, start more while they fit this budget")
	fs.BoolVar(&o.trace, "trace", false, "run the traced pass: per-layer metrics and out/trace.json")
	fs.BoolVar(&o.repeat, "repeat", false, "run two full sets and fail if any median moves by more than its bound")
	fs.BoolVar(&o.quick, "quick", false, "1.2k-node data, 4 epochs, 2 repetitions: the package test's spec")
	fs.BoolVar(&o.child, "child", false, "internal: run one repetition and print its result as JSON")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for trace.json, repeat.json and run files")
	if err := fs.Parse(norm); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	o.reps = fullReps
	if o.quick {
		o.reps = 2
	}
	return o, nil
}

func run(args []string, stdout io.Writer) int {
	o, err := parseArgs(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	set := workloads
	if o.quick {
		set = quickWorkloads()
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	switch {
	case o.child:
		w := findWorkload(set, o.workload)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", o.workload))
		}
		rep := runRep
		if o.trace {
			rep = runTraceRep
		}
		res, err := rep(w, o.seed, o.out)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			return fail(err)
		}
		return 0
	case o.workload != "":
		w := findWorkload(set, o.workload)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", o.workload))
		}
		if err := driveOne(stdout, w, o); err != nil {
			return fail(err)
		}
		return 0
	case o.repeat:
		ok, err := repeatSets(stdout, set, o)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	default:
		sums, err := fullSet(stdout, set, o)
		if err != nil {
			return fail(err)
		}
		for _, s := range sums {
			if s.failed > 0 {
				return 1
			}
		}
		return 0
	}
}

// spawner starts repetition children and hands each a private directory.
type spawner struct {
	o    *options
	runs int
}

// spawn runs one repetition of w as a cold child process and waits for it.
// A cold process per repetition keeps set-up time, the memory high-water
// mark and GC state free of whatever ran before.
func (s *spawner) spawn(w *workload, traced bool) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	s.runs++
	dir := filepath.Join(s.o.out, fmt.Sprintf("run-%d-%d", os.Getpid(), s.runs))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(s.o.seed, 10), "-out", dir}
	if traced {
		args = append(args, "-trace")
	}
	if s.o.quick {
		args = append(args, "-quick")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	buf, err := cmd.Output() // waits for the child to end
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%s: repetition exceeded %v", w.name, childTimeout)
		}
		return nil, fmt.Errorf("%s: repetition failed: %w", w.name, err)
	}
	res := new(repResult)
	if err := json.Unmarshal(buf, res); err != nil {
		return nil, fmt.Errorf("%s: repetition result: %w", w.name, err)
	}
	return res, nil
}

// driveOne is the driver's entry: one workload, one result line.
func driveOne(stdout io.Writer, w *workload, o *options) error {
	sp := &spawner{o: o}
	fmt.Fprintf(stdout, "bench: %s seed %d, GOMAXPROCS %d, %s\n", w.name, o.seed, runtime.GOMAXPROCS(0), runtime.Version())
	if o.trace {
		rep, err := sp.spawn(w, true)
		if err != nil {
			return err
		}
		printLayers(stdout, rep)
		if err := writeTrace(filepath.Join(o.out, "trace.json"), [][]span{rep.Spans}); err != nil {
			return err
		}
		return resultLine(stdout, rep.Attempted, rep.Failed, perLayer, rep.Layers)
	}

	// Closed loop, one job at a time: fullReps repetitions at least, so that
	// every value is a median over cold processes, then more while the last
	// one's duration still fits the budget.
	var reps []*repResult
	var errs []error
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	for {
		t0 := time.Now()
		rep, err := sp.spawn(w, false)
		if err != nil {
			errs = append(errs, err)
			break // a failing workload fails again; do not spend the budget on it
		}
		reps = append(reps, rep)
		if len(reps) >= fullReps && time.Since(start)+time.Since(t0) > budget {
			break
		}
	}
	sum := summarise(w, reps, errs)
	printSummary(stdout, sum)
	if len(reps) == 0 {
		return errors.Join(errs...)
	}
	return resultLine(stdout, sum.attempted, sum.failed, endToEnd, sum.values)
}

// resultLine prints the driver's contract: one JSON object, last on stdout.
func resultLine(stdout io.Writer, attempted, failed int, defs []metricDef, values map[string]float64) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		metrics[d.name] = metric{values[d.name], d.unit}
	}
	return json.NewEncoder(stdout).Encode(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
}

// fullSet runs o.reps repetitions of every workload, interleaved (A B C D E
// F, A B …) so slow drift of the host lands on all workloads alike, then the
// traced pass if asked.
func fullSet(stdout io.Writer, set []workload, o *options) ([]*summary, error) {
	sp := &spawner{o: o}
	fmt.Fprintf(stdout, "bench: full set, seed %d, %d repetitions, GOMAXPROCS %d, %s\n",
		o.seed, o.reps, runtime.GOMAXPROCS(0), runtime.Version())
	reps := make([][]*repResult, len(set))
	errs := make([][]error, len(set))
	for r := 0; r < o.reps; r++ {
		for i := range set {
			rep, err := sp.spawn(&set[i], false)
			if err != nil {
				errs[i] = append(errs[i], err)
				continue
			}
			reps[i] = append(reps[i], rep)
		}
	}
	sums := make([]*summary, len(set))
	for i := range set {
		sums[i] = summarise(&set[i], reps[i], errs[i])
		printSummary(stdout, sums[i])
	}
	if !o.trace {
		return sums, writeResults(filepath.Join(o.out, "results.json"), o, sums)
	}
	var spans [][]span
	for i := range set {
		rep, err := sp.spawn(&set[i], true)
		if err != nil {
			return nil, err
		}
		printLayers(stdout, rep)
		sums[i].layers = rep.Layers
		sums[i].attempted += rep.Attempted
		sums[i].failed += rep.Failed
		sums[i].failures = append(sums[i].failures, rep.Failures...)
		spans = append(spans, rep.Spans)
	}
	path := filepath.Join(o.out, "trace.json")
	fmt.Fprintf(stdout, "\ntrace written to %s\n", path)
	if err := writeTrace(path, spans); err != nil {
		return nil, err
	}
	return sums, writeResults(filepath.Join(o.out, "results.json"), o, sums)
}
