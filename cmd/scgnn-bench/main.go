// Command scgnn-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	scgnn-bench -exp all                 # every experiment (DESIGN.md §4)
//	scgnn-bench -exp table1 -epochs 60   # one experiment, custom epochs
//	scgnn-bench -exp fig9 -parts 8       # one experiment, 8 partitions
//	scgnn-bench -list                    # list experiment ids
//
// Output is text tables/series on stdout; add -csv DIR to also write each
// table as CSV.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"scgnn/internal/exp"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is the command; it returns the exit status: 2 for a bad command line,
// which is refused before any experiment runs, and 1 for a failed one.
func run(args []string) int {
	fs := flag.NewFlagSet("scgnn-bench", flag.ExitOnError)
	var (
		expID  = fs.String("exp", "all", "experiment id (see -list) or 'all'")
		seed   = fs.Int64("seed", 1, "global random seed")
		epochs = fs.Int("epochs", 0, "training epochs per run (0 = default)")
		parts  = fs.Int("parts", 0, "partition count for single-count experiments (0 = default 4)")
		quick  = fs.Bool("quick", false, "shrink sweeps/epochs for a fast smoke run")
		csvDir = fs.String("csv", "", "directory to write per-table CSV files")
		svgDir = fs.String("svg", "", "directory to write per-figure SVG plots")
		logY   = fs.Bool("svg-logy", false, "log-scale the y axis of SVG plots")
		list   = fs.Bool("list", false, "list experiment ids and exit")
		scale  = fs.String("scale", "", "run the scale study over comma-separated presets ('all' = reddit-sim-{10k,100k,1m}) and print benchmark-format rows for scgnn-benchjson")
		cpuPro = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memPro = fs.String("memprofile", "", "write an end-of-run heap profile to this file")
	)
	fs.Parse(args)

	if *list {
		for _, id := range exp.IDs() {
			fmt.Println(id)
		}
		return 0
	}
	if *parts < 0 {
		fmt.Fprintf(os.Stderr, "scgnn-bench: -parts %d: want 0 (default) or more\n", *parts)
		return 2
	}
	ids := exp.IDs()
	if *expID != "all" {
		ids = strings.Split(*expID, ",")
		for _, id := range ids {
			if !slices.Contains(exp.IDs(), id) {
				fmt.Fprintf(os.Stderr, "scgnn-bench: unknown experiment %q (use -list)\n", id)
				return 2
			}
		}
	}

	if *cpuPro != "" {
		f, err := os.Create(*cpuPro)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scgnn-bench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "scgnn-bench: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "scgnn-bench: %v\n", err)
			}
		}()
	}
	defer writeMemProfile(*memPro)

	opts := exp.Options{Seed: *seed, Epochs: *epochs, Partitions: *parts, Quick: *quick}

	if *scale != "" {
		return runScale(*scale, opts)
	}

	for _, id := range ids {
		start := time.Now()
		report, err := exp.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scgnn-bench: %v\n", err)
			return 1
		}
		fmt.Print(report.String())
		fmt.Printf("(%s completed in %s)\n\n", id, time.Since(start).Round(time.Millisecond))

		if *csvDir != "" {
			writeTables(*csvDir, id, report)
		}
		if *svgDir != "" {
			writeFigures(*svgDir, id, report, *logY)
		}
	}
	return 0
}

// runScale executes the scale study (exp.ScaleBench) and prints one
// `go test -bench`-shaped line per preset, so the rows flow through the same
// scgnn-benchjson merge as the micro-benchmarks (make bench-scale →
// BENCH_scale.json). The non-standard units land in the JSON metrics map.
func runScale(sel string, opts exp.Options) int {
	var names []string
	if sel != "all" {
		names = strings.Split(sel, ",")
	}
	rows, err := exp.ScaleBench(opts, names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scgnn-bench: %v\n", err)
		return 1
	}
	for _, r := range rows {
		fmt.Printf("BenchmarkScalePipeline/%s 1 %.0f gen-ns %.0f plan-ns %.0f replan-ns %.4f rounds/sec %.4f rounds/sec-vanilla %.4f rounds/sec-quant8 %d peak-rss-B %d peak-heap-B %d gen-peak-B %d plan-peak-B %d replan-peak-B %d nodes %d arcs %d cross-arcs %d dirty-pairs\n",
			r.Dataset,
			r.GenSeconds*1e9, r.PlanSeconds*1e9, r.ReplanSeconds*1e9,
			r.RoundsPerSec, r.RoundsPerSecVanilla, r.RoundsPerSecQuant8,
			r.PeakRSSBytes, r.PeakHeapBytes,
			r.GenPeakBytes, r.PlanPeakBytes, r.ReplanPeakBytes,
			r.Nodes, r.Arcs, r.CrossArcs, r.DirtyPairs)
	}
	return 0
}

// writeMemProfile snapshots the post-GC live heap into path ("" = off).
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scgnn-bench: %v\n", err)
		return
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "scgnn-bench: %v\n", err)
	}
}

// writeFigures dumps every figure of a report into dir as SVG plots.
func writeFigures(dir, id string, report *exp.Report, logY bool) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "scgnn-bench: %v\n", err)
		os.Exit(1)
	}
	for i, fig := range report.Figures {
		path := filepath.Join(dir, fmt.Sprintf("%s_%d.svg", id, i))
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scgnn-bench: %v\n", err)
			os.Exit(1)
		}
		err = fig.WriteSVG(f, 640, 400, logY)
		if cerr := f.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "scgnn-bench: %v\n", cerr)
			os.Exit(1)
		}
		if err != nil {
			// Empty figures are not fatal for a batch run.
			fmt.Fprintf(os.Stderr, "scgnn-bench: %s figure %d: %v\n", id, i, err)
		}
	}
}

// writeTables dumps every table of a report into dir as CSV.
func writeTables(dir, id string, report *exp.Report) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "scgnn-bench: %v\n", err)
		os.Exit(1)
	}
	for i, tb := range report.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s_%d.csv", id, i))
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scgnn-bench: %v\n", err)
			os.Exit(1)
		}
		err = tb.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "scgnn-bench: %v\n", err)
			os.Exit(1)
		}
	}
}
