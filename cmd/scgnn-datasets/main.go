// Command scgnn-datasets generates and describes the synthetic benchmark
// datasets.
//
// Usage:
//
//	scgnn-datasets -list
//	scgnn-datasets -dataset reddit-sim
//	scgnn-datasets -custom -nodes 5000 -degree 20 -classes 12
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"scgnn/internal/datasets"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is the command; it returns the exit status: 2 for a bad command line,
// which is refused before any dataset is generated.
func run(args []string) int {
	fs := flag.NewFlagSet("scgnn-datasets", flag.ExitOnError)
	var (
		list    = fs.Bool("list", false, "list benchmark datasets and exit")
		name    = fs.String("dataset", "", "benchmark dataset to generate")
		seed    = fs.Int64("seed", 1, "generation seed")
		custom  = fs.Bool("custom", false, "generate a custom dataset from the flags below")
		nodes   = fs.Int("nodes", 1000, "custom: node count")
		degree  = fs.Float64("degree", 10, "custom: average degree")
		classes = fs.Int("classes", 5, "custom: class count")
		dim     = fs.Int("dim", 32, "custom: feature dimension")
		homo    = fs.Float64("homophily", 0.8, "custom: intra-class edge probability")
		noise   = fs.Float64("noise", 1.0, "custom: feature noise sigma")
	)
	fs.Parse(args)

	if *list {
		for _, n := range datasets.Names() {
			d, _ := datasets.ByName(n, *seed)
			fmt.Printf("%-20s %5d nodes  %7d arcs  avg degree %6.1f  %2d classes\n",
				n, d.NumNodes(), d.Graph.NumEdges(), d.Graph.AvgDegree(), d.NumClasses)
		}
		return 0
	}

	var ds *datasets.Dataset
	switch {
	case *custom:
		spec := datasets.Spec{
			Name: "custom", Nodes: *nodes, AvgDegree: *degree, Classes: *classes,
			FeatureDim: *dim, Homophily: *homo, FeatureNoise: *noise, Seed: *seed,
		}
		if err := spec.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "scgnn-datasets: -custom: %v\n", err)
			return 2
		}
		ds = datasets.Generate(spec)
	case *name != "":
		var err error
		if ds, err = datasets.ByName(*name, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "scgnn-datasets:", err)
			return 2
		}
	default:
		fmt.Fprintln(os.Stderr, "scgnn-datasets: need -dataset, -custom, or -list")
		return 2
	}
	printStats(ds)
	return 0
}

func printStats(ds *datasets.Dataset) {
	g := ds.Graph
	fmt.Printf("== %s ==\n", ds.Name)
	fmt.Printf("nodes      %d\n", ds.NumNodes())
	fmt.Printf("arcs       %d (avg degree %.2f, max %d)\n", g.NumEdges(), g.AvgDegree(), g.MaxDegree())
	fmt.Printf("features   %d dims\n", ds.FeatureDim())
	fmt.Printf("classes    %d\n", ds.NumClasses)
	fmt.Printf("splits     %d train / %d val / %d test\n",
		datasets.CountMask(ds.TrainMask), datasets.CountMask(ds.ValMask), datasets.CountMask(ds.TestMask))

	// Class balance.
	counts := make(map[int]int)
	for _, l := range ds.Labels {
		counts[l]++
	}
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	fmt.Printf("class histogram:")
	for _, k := range keys {
		fmt.Printf(" %d:%d", k, counts[k])
	}
	fmt.Println()

	// Degree distribution summary.
	hist := g.DegreeHistogram()
	degrees := make([]int, 0, len(hist))
	for d := range hist {
		degrees = append(degrees, d)
	}
	sort.Ints(degrees)
	var cum, p50, p90 int
	total := ds.NumNodes()
	for _, d := range degrees {
		cum += hist[d]
		if p50 == 0 && cum*2 >= total {
			p50 = d
		}
		if p90 == 0 && cum*10 >= total*9 {
			p90 = d
		}
	}
	fmt.Printf("degree p50 %d, p90 %d\n", p50, p90)

	// Homophily.
	intra := 0
	for _, e := range g.Edges() {
		if ds.Labels[e.U] == ds.Labels[e.V] {
			intra++
		}
	}
	if g.NumEdges() > 0 {
		fmt.Printf("homophily  %.3f (intra-class edge fraction)\n", float64(intra)/float64(g.NumEdges()))
	}
}
