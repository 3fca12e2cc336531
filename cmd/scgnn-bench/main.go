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
	"strings"
	"time"

	"scgnn/internal/exp"
)

func main() {
	var (
		expID  = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		seed   = flag.Int64("seed", 1, "global random seed")
		epochs = flag.Int("epochs", 0, "training epochs per run (0 = default)")
		parts  = flag.Int("parts", 0, "partition count for single-count experiments (0 = default 4)")
		quick  = flag.Bool("quick", false, "shrink sweeps/epochs for a fast smoke run")
		csvDir = flag.String("csv", "", "directory to write per-table CSV files")
		mdDir  = flag.String("markdown", "", "directory to write per-table Markdown files")
		svgDir = flag.String("svg", "", "directory to write per-figure SVG plots")
		logY   = flag.Bool("svg-logy", false, "log-scale the y axis of SVG plots")
		list   = flag.Bool("list", false, "list experiment ids and exit")
		scale  = flag.String("scale", "", "run the scale study over comma-separated presets ('all' = reddit-sim-{10k,100k,1m}) and print benchmark-format rows for scgnn-benchjson")
		mmap   = flag.Bool("mmap", false, "back scale-study feature matrices with mmap'd files (out-of-core mode; bit-identical results)")
		cpuPro = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memPro = flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	)
	flag.Parse()

	if *list {
		for _, id := range exp.IDs() {
			fmt.Println(id)
		}
		return
	}

	if *cpuPro != "" {
		f, err := os.Create(*cpuPro)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scgnn-bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "scgnn-bench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "scgnn-bench: %v\n", err)
			}
		}()
	}
	defer writeMemProfile(*memPro)

	opts := exp.Options{Seed: *seed, Epochs: *epochs, Partitions: *parts, Quick: *quick, MmapFeatures: *mmap}

	if *scale != "" {
		runScale(*scale, opts)
		return
	}

	var ids []string
	if *expID == "all" {
		ids = exp.IDs()
	} else {
		for _, id := range strings.Split(*expID, ",") {
			if _, ok := exp.Registry[id]; !ok {
				fmt.Fprintf(os.Stderr, "scgnn-bench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	for _, id := range ids {
		start := time.Now()
		report := exp.Registry[id](opts)
		fmt.Print(report.String())
		fmt.Printf("(%s completed in %s)\n\n", id, time.Since(start).Round(time.Millisecond))

		if *csvDir != "" {
			writeTables(*csvDir, id, report, "csv")
		}
		if *mdDir != "" {
			writeTables(*mdDir, id, report, "md")
		}
		if *svgDir != "" {
			writeFigures(*svgDir, id, report, *logY)
		}
	}
}

// runScale executes the scale study (exp.ScaleBench) and prints one
// `go test -bench`-shaped line per preset, so the rows flow through the same
// scgnn-benchjson merge as the micro-benchmarks (make bench-scale →
// BENCH_scale.json). The non-standard units land in the JSON metrics map.
func runScale(sel string, opts exp.Options) {
	var names []string
	if sel != "all" {
		names = strings.Split(sel, ",")
	}
	for _, r := range exp.ScaleBench(opts, names) {
		fmt.Printf("BenchmarkScalePipeline/%s 1 %.0f gen-ns %.0f plan-ns %.0f replan-ns %.4f rounds/sec %.4f rounds/sec-vanilla %.4f rounds/sec-quant8 %d peak-rss-B %d peak-heap-B %d gen-peak-B %d plan-peak-B %d replan-peak-B %d nodes %d arcs %d cross-arcs %d dirty-pairs\n",
			r.Dataset,
			r.GenSeconds*1e9, r.PlanSeconds*1e9, r.ReplanSeconds*1e9,
			r.RoundsPerSec, r.RoundsPerSecVanilla, r.RoundsPerSecQuant8,
			r.PeakRSSBytes, r.PeakHeapBytes,
			r.GenPeakBytes, r.PlanPeakBytes, r.ReplanPeakBytes,
			r.Nodes, r.Arcs, r.CrossArcs, r.DirtyPairs)
	}
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

// writeTables dumps every table of a report into dir as CSV or Markdown.
func writeTables(dir, id string, report *exp.Report, format string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "scgnn-bench: %v\n", err)
		os.Exit(1)
	}
	for i, tb := range report.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s_%d.%s", id, i, format))
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scgnn-bench: %v\n", err)
			os.Exit(1)
		}
		switch format {
		case "csv":
			err = tb.WriteCSV(f)
		case "md":
			err = tb.WriteMarkdown(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "scgnn-bench: %v\n", err)
			os.Exit(1)
		}
	}
}
