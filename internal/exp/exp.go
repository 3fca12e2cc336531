// Package exp contains one builder per table and figure of the paper's
// evaluation (Sec. 5), plus ablations, in one ordered suite that Run runs by
// id. Each builder wires datasets → partitioner → semantic plans →
// distributed training runs and emits text tables/figures via
// internal/trace. The experiment ↔ module map lives in DESIGN.md §4;
// paper-vs-measured outcomes are recorded in EXPERIMENTS.md.
package exp

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"slices"
	"strings"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/dist"
	"scgnn/internal/graph"
	"scgnn/internal/partition"
	"scgnn/internal/trace"
)

// Options tunes an experiment run.
type Options struct {
	// Seed drives every stochastic component; same seed → same report.
	Seed int64
	// Epochs per training run (default 40; Quick mode uses 12).
	Epochs int
	// Partitions for single-partition-count experiments (default 4).
	Partitions int
	// Quick shrinks sweeps and epochs so the full suite runs in seconds —
	// used by tests; the cmd harness uses full settings.
	Quick bool
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Epochs == 0 {
		if o.Quick {
			o.Epochs = 12
		} else {
			o.Epochs = 40
		}
	}
	if o.Partitions == 0 {
		o.Partitions = 4
	}
	return o
}

// Report is the output of one experiment.
type Report struct {
	ID      string
	Tables  []*trace.Table
	Figures []*trace.Figure
	Notes   []string
	// losses folds in the bit pattern of every training run's per-epoch
	// losses, in run order (job.train): one digest that moves when any
	// loss does.
	losses hash.Hash
}

// AddNote records a free-text observation in the report.
func (r *Report) AddNote(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the whole report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "######## experiment %s ########\n", r.ID)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	for _, f := range r.Figures {
		b.WriteString(f.String())
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// suite is the experiment suite in display order: the paper's tables and
// figures in paper order, then the ablations and the scale study.
var suite = []struct {
	id    string
	build func(*job)
}{
	{"fig2b", fig2b}, {"fig2d", fig2d}, {"fig4a", fig4a}, {"fig4b", fig4b},
	{"fig6", fig6}, {"fig9", fig9}, {"fig10", fig10}, {"table1", table1},
	{"fig11", fig11}, {"fig12a", fig12a}, {"fig12b", fig12b}, {"table2", table2},
	{"abl-codec", ablCodec}, {"abl-curves", ablCurves}, {"abl-depth", ablDepth},
	{"abl-fabric", ablFabric}, {"abl-groups", ablGroupCount}, {"abl-replan", ablReplan},
	{"abl-sched", ablSched}, {"abl-seeds", ablSeeds}, {"abl-sim", ablSimilarity},
	{"abl-weights", ablWeights}, {"scale", scale},
}

// IDs returns the experiment ids in display order.
func IDs() []string {
	ids := make([]string, len(suite))
	for i, e := range suite {
		ids[i] = e.id
	}
	return ids
}

// job is one experiment's run: its options with the defaults applied, the
// report its builder fills, and the steps every builder shares. A step that
// fails bails out of the builder; Run returns the error.
type job struct {
	Options
	*Report
	asked Options // as the caller gave them: the scale study has its own defaults
}

// bailout carries a failed step out of a builder to Run.
type bailout struct{ err error }

// Run regenerates experiment id under o and returns its report. An unknown
// id, or a step that fails — a partition with an empty part, a training run
// dist.Run refuses — is an error.
func Run(id string, o Options) (rep *Report, err error) {
	i := slices.Index(IDs(), id)
	if i < 0 {
		return nil, fmt.Errorf("exp: unknown experiment %q", id)
	}
	defer func() {
		if p := recover(); p != nil {
			b, ok := p.(bailout)
			if !ok {
				panic(p)
			}
			rep, err = nil, fmt.Errorf("exp %s: %w", id, b.err)
		}
	}()
	j := &job{Options: o.withDefaults(), Report: &Report{ID: id, losses: sha256.New()}, asked: o}
	suite[i].build(j)
	return j.Report, nil
}

// check bails out of the builder when err is not nil.
func (j *job) check(err error) {
	if err != nil {
		panic(bailout{err})
	}
}

// cut splits d into nparts parts with method m; a vector
// graph.ValidatePartition refuses fails the experiment.
func (j *job) cut(d *datasets.Dataset, nparts int, m partition.Method) []int {
	part := partition.Partition(d.Graph, nparts, m, partition.Config{Seed: j.Seed})
	j.check(graph.ValidatePartition(d.NumNodes(), part, nparts))
	return part
}

// part is the default partition: node-cut into Options.Partitions parts.
func (j *job) part(d *datasets.Dataset) []int { return j.cut(d, j.Partitions, partition.NodeCut) }

// train is dist.Run, failing the experiment on an error. The run's losses
// are folded into the report's digest.
func (j *job) train(d *datasets.Dataset, part []int, nparts int, cfg dist.Config, rc dist.RunConfig) *dist.Result {
	res, err := dist.Run(d, part, nparts, cfg, rc)
	j.check(err)
	var bits [8]byte
	for _, e := range res.Epochs {
		binary.LittleEndian.PutUint64(bits[:], math.Float64bits(e.Loss))
		j.losses.Write(bits[:])
	}
	return res
}

// runCfg is the shared training configuration.
func (j *job) runCfg() dist.RunConfig { return dist.RunConfig{Epochs: j.Epochs, Seed: j.Seed} }

// table adds a table to the report.
func (j *job) table(title string, columns ...string) *trace.Table {
	t := trace.NewTable(title, columns...)
	j.Tables = append(j.Tables, t)
	return t
}

// figure adds a figure to the report.
func (j *job) figure(title, xLabel, yLabel string) *trace.Figure {
	f := trace.NewFigure(title, xLabel, yLabel)
	j.Figures = append(j.Figures, f)
	return f
}

// benchDatasets returns the experiment's dataset list (all four, or a dense
// + sparse pair in Quick mode).
func benchDatasets(o Options) []*datasets.Dataset {
	if o.Quick {
		return []*datasets.Dataset{quickReddit(o.Seed), datasets.PubMedSim(o.Seed)}
	}
	return datasets.AllBenchmarks(o.Seed)
}

// quickReddit is a shrunken reddit-sim for Quick mode.
func quickReddit(seed int64) *datasets.Dataset {
	return datasets.Generate(datasets.Spec{
		Name:       "reddit-sim",
		Nodes:      400,
		AvgDegree:  30,
		Classes:    5,
		FeatureDim: 16,
		Homophily:  0.85,
		Seed:       seed,
	})
}

// semanticCfg is the default SC-GNN configuration (auto-EEP grouping).
func semanticCfg(seed int64) dist.Config {
	return dist.Semantic(core.PlanConfig{Grouping: core.GroupingConfig{Seed: seed}})
}

// largestDBG returns the cross-partition DBG with the most edges, used by
// the grouping-analysis experiments. Returns nil when nothing crosses.
func largestDBG(d *datasets.Dataset, part []int, nparts int) *graph.DBG {
	var best *graph.DBG
	for _, dbg := range graph.AllDBGs(d.Graph, part, nparts) {
		if best == nil || dbg.NumEdges() > best.NumEdges() {
			best = dbg
		}
	}
	return best
}
