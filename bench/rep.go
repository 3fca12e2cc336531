package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"scgnn/internal/gnn"
	"scgnn/internal/tensor"
	"scgnn/internal/worker"
)

// refEpochs is how many leading epochs the reference runs of the
// cross-runtime checks train: enough for a divergence to show, cheap enough
// to run in every repetition.
const refEpochs = 6

// lossTol is the relative tolerance between runs whose arithmetic is the
// same up to summation order (Cluster.receivePhase sums in arrival order at
// nparts > 2; the fleet drains senders in ascending order).
const lossTol = 1e-6

// repResult is what one cold child process reports to the driver.
type repResult struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	SetupS    float64   `json:"setup_s"`
	Train     *training `json:"train"`
	PeakRSSMB float64   `json:"peak_rss_mb"`

	// Operations attempted and failed inside this repetition: epochs,
	// reaching the accuracy target, and each correctness check.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	// Traced pass only.
	Layers layers `json:"layers,omitempty"`
	Spans  []span `json:"spans,omitempty"`
	// TailPct and TailN describe gnn.epoch_ms_tail: which percentile it is
	// and over how many pooled epochs.
	TailPct float64 `json:"tail_pct,omitempty"`
	TailN   int     `json:"tail_n,omitempty"`
}

func (r *repResult) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// checkTraining counts the epochs as operations and applies the checks that
// need nothing but the training record.
func (r *repResult) checkTraining(w *workload, tr *training) {
	for e, l := range tr.Losses {
		r.check(!math.IsNaN(l) && !math.IsInf(l, 0), "epoch %d: loss %v is not finite", e, l)
	}
	r.check(tr.TimeToAccS >= 0, "validation accuracy never reached the target %.2f (best %.4f)", w.target, slices.Max(tr.ValAcc))
	r.check(tr.TestAcc >= w.floor, "test accuracy %.4f is below the floor %.2f", tr.TestAcc, w.floor)
}

// runRep is the untraced repetition in its cold process: set up, train,
// record the memory high-water mark, then run the correctness checks (after
// the mark, so their reference runtimes do not count toward it).
func runRep(w *workload, seed int64, dir string) (*repResult, error) {
	res := &repResult{Workload: w.name, Seed: seed}
	t0 := time.Now()
	j, err := setUp(w, seed, dir, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer j.close()
	res.SetupS = time.Since(t0).Seconds()

	tr, err := j.trainUntraced()
	if err != nil {
		return nil, err
	}
	res.Train = tr
	res.PeakRSSMB = peakRSSMB()
	res.checkTraining(w, tr)
	if err := j.crossChecks(res, tr); err != nil {
		return nil, err
	}
	return res, nil
}

// crossChecks compares the run against an independent runtime where the
// repo promises agreement, and checks the steady-state round allocates
// nothing.
func (j *job) crossChecks(res *repResult, tr *training) error {
	g := j.ds.Graph
	n := min(refEpochs, j.w.epochs())
	switch j.w.runtime {
	case onEngine:
		_, ref, err := j.baselineEpochs(gnn.NewLocalAggregator(g), n-1)
		if err != nil {
			return err
		}
		at := lossesMatch(head(tr.Losses, n), ref, lossTol)
		res.check(at < 0, "engine loss differs from gnn.LocalAggregator training at epoch %d", at)
	case onFleet:
		c := worker.NewClusterFromConfig(g, j.part, nparts, j.cfg)
		defer c.Close()
		_, ref, err := j.baselineEpochs(c, n-1)
		if err != nil {
			return err
		}
		at := lossesMatch(head(tr.Losses, n), ref, lossTol)
		res.check(at < 0, "fleet loss differs from worker.Cluster training at epoch %d", at)
		total, _ := c.Traffic()
		var mesh int64
		for _, b := range head(tr.Bytes, n) {
			mesh += b
		}
		res.check(mesh == total, "fleet mesh traffic %d B over %d epochs, worker.Cluster %d B", mesh, n, total)
	case onCluster:
		if j.cfg.Sched.Enabled {
			break // rung changes reseed pair state: allocation is expected there
		}
		dst := tensor.New(g.NumNodes(), width)
		allocs, err := roundAllocs(j.cluster.StartEpoch, func(backward bool) error {
			return j.cluster.AggregateInto(dst, j.ds.Features, backward)
		})
		if err != nil {
			return err
		}
		res.check(allocs == 0, "steady-state round allocates %.0f objects", allocs)
	}
	return nil
}

// runTraceRep is the traced repetition: the same workload once with a span
// at every layer boundary and once untraced for comparison, then the layer
// probes. Every per-layer metric comes from here.
func runTraceRep(w *workload, seed int64, dir string) (*repResult, error) {
	res := &repResult{Workload: w.name, Seed: seed, Layers: layers{}}
	tracer := newTracer(fmt.Sprintf("%s/seed%d", w.name, seed))
	root := tracer.begin(w.name)

	j, err := setUp(w, seed, dir, tracer)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var hub0, mesh0 int64
	if j.fleet != nil {
		hub0, mesh0 = j.fleet.hub.total(), j.fleet.mesh.total()
	}
	cpu0, t0 := cpuTime(), time.Now()
	traced, err := j.trainTraced(tracer)
	if err != nil {
		j.close()
		return nil, err
	}
	busy := float64(cpuTime()-cpu0) / float64(time.Since(t0))
	tracer.end(root)
	res.Spans = tracer.spans
	out := res.Layers
	if j.fleet != nil {
		epochs := float64(w.epochs())
		out["net.hub_mb_per_epoch"] = float64(j.fleet.hub.total()-hub0) / 1e6 / epochs
		out["net.mesh_mb_per_epoch"] = float64(j.fleet.mesh.total()-mesh0) / 1e6 / epochs
		out["persist.ckpt_mb"] = fileMB(j.ckptPath)
	}
	j.close()

	// The untraced pass on a fresh set-up: its losses are the reference and
	// its epoch time the base of the tracing overhead.
	j, err = setUp(w, seed, dir, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer j.close()
	plain, err := j.trainUntraced()
	if err != nil {
		return nil, err
	}
	res.Train = plain
	res.PeakRSSMB = peakRSSMB()
	res.checkTraining(w, plain)
	untraced, _ := perRep(w, res)
	tol := lossTol
	if w.runtime == onEngine {
		tol = 0 // one goroutine order, one arithmetic: bit for bit
	}
	at := lossesMatch(traced.Losses, plain.Losses, tol)
	res.check(at < 0, "traced loss differs from untraced at epoch %d", at)

	spanMetrics(w, res.Spans, out)
	shares := out["gnn.agg_share"] + out["gnn.dense_share"] + out["nn.loss_share"] + out["nn.opt_share"]
	res.check(math.Abs(shares-1) <= 0.02, "traced shares sum to %.4f, want 1 ± 0.02", shares)
	out["gnn.cores_busy"] = busy
	out["gnn.trace_overhead_pct"] = 100 * (median(traced.EpochMs) - median(plain.EpochMs)) / median(plain.EpochMs)
	pooled := append(append([]float64(nil), plain.EpochMs...), traced.EpochMs...)
	out["gnn.epoch_ms_tail"], res.TailPct = tail(pooled)
	res.TailN = len(pooled)
	for _, d := range demoted {
		out[d.name] = untraced[d.name]
	}
	switch w.boundary {
	case checkpointBoundary:
		out["net.checkpoint_ms"] = median(plain.BoundaryMs)
	case repartitionBoundary:
		out["worker.repartition_ms"] = median(plain.BoundaryMs)
	}
	if j.cfg.Sched.Enabled {
		out["sched.rung_changes"] = float64(traced.RungChanges)
	}

	kernelProbes(j, out)
	if err := j.roundProbes(dir, out); err != nil {
		return nil, err
	}
	if a, ok := out["worker.round_allocs"]; ok && !j.cfg.Sched.Enabled {
		res.check(a == 0, "steady-state round allocates %.0f objects", a)
	}

	n := j.probeEpochs()
	if out["gnn.local_epoch_ms"], _, err = j.baselineEpochs(gnn.NewLocalAggregator(j.ds.Graph), n); err != nil {
		return nil, err
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	single, err := setUp(w, seed, filepath.Join(dir, "1p"), nil)
	if err != nil {
		return nil, err
	}
	defer single.close()
	if out["gnn.epoch_ms_1p"], _, err = single.baselineEpochs(single.agg, n); err != nil {
		return nil, err
	}
	return res, nil
}

// spanMetrics turns the traced spans into the per-layer self times and
// shares. Only spans under an epoch span count toward the epoch budget (the
// final evaluation pass runs two more aggregate rounds outside any epoch);
// shares are of the summed epoch spans.
func spanMetrics(w *workload, spans []span, out layers) {
	self := selfTimes(spans)
	inEpoch := make([]bool, len(spans))
	sum := map[string]time.Duration{} // self time inside epochs, by span name
	dur := map[string]time.Duration{} // full duration, by span name
	epochs := 0
	for i, s := range spans {
		dur[s.Name] += s.End - s.Start
		inEpoch[i] = s.Name == "epoch" || (s.Parent >= 0 && inEpoch[s.Parent])
		if inEpoch[i] {
			sum[s.Name] += self[i]
		}
		if s.Name == "epoch" {
			epochs++
		}
	}
	perEpoch := func(d time.Duration) float64 { return ms(d) / float64(max(epochs, 1)) }
	agg := sum["agg.fwd"] + sum["agg.bwd"] + sum["agg.start"]
	dense := sum["forward"] + sum["backward"]
	total := float64(dur["epoch"])
	out["gnn.forward_dense_ms"] = perEpoch(sum["forward"])
	out["gnn.backward_dense_ms"] = perEpoch(sum["backward"])
	out["gnn.agg_ms"] = perEpoch(agg)
	out["gnn.agg_share"] = float64(agg) / total
	out["gnn.dense_share"] = float64(dense) / total
	out["nn.loss_share"] = float64(sum["loss"]) / total
	out["nn.opt_share"] = float64(sum["opt"]) / total

	out["datasets.gen_s"] = dur["gen"].Seconds()
	out["partition.partition_s"] = dur["partition"].Seconds()
	out["graph.buckets_s"] = dur["buckets"].Seconds()
	out["core.plan_s"] = dur["plan"].Seconds()
	switch w.runtime {
	case onEngine:
		out["dist.build_s"] = dur["build"].Seconds()
	case onCluster:
		out["worker.build_s"] = dur["build"].Seconds()
	case onFleet:
		out["net.setup_s"] = dur["build"].Seconds()
	}
}

func head[T any](s []T, n int) []T { return s[:min(n, len(s))] }

func meanBytes(b []int64) float64 {
	var sum int64
	for _, x := range b {
		sum += x
	}
	return float64(sum) / float64(max(len(b), 1))
}

// median returns the middle value (mean of the two middle values for an
// even count), 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail returns the highest percentile of v that still has ten samples
// beyond it, and which percentile that is (0 when v has ten or fewer).
func tail(v []float64) (value, pct float64) {
	if len(v) <= 10 {
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := len(s) - 11
	return s[at], 100 * float64(at+1) / float64(len(s))
}
