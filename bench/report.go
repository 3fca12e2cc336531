package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
)

// summary is one workload's repetitions reduced to the end-to-end metrics.
type summary struct {
	w    *workload
	reps int
	// values is the median over repetitions of each per-repetition value;
	// spread is (max − min) / median of those values; samples is how many
	// raw measurements stand behind the value.
	values  map[string]float64
	spread  map[string]float64
	samples map[string]int
	layers  layers

	attempted, failed int
	failures          []string
}

func (s *summary) check(ok bool, format string, args ...any) {
	s.attempted++
	if !ok {
		s.failed++
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// perRep extracts one repetition's value of every metric the untraced pass
// measures (the bounded end-to-end ones and the demoted ones) and the number
// of raw samples behind it.
func perRep(w *workload, r *repResult) (map[string]float64, map[string]int) {
	tr := r.Train
	tta := tr.TimeToAccS
	if tta < 0 {
		tta = tr.TrainS // never reached: the whole budget was spent trying
	}
	return map[string]float64{
			"setup_s":          r.SetupS,
			"epoch_ms_p50":     median(tr.EpochMs),
			"train_s":          tr.TrainS,
			"time_to_acc_s":    tta,
			"cpu_ms_per_epoch": tr.CPUMs / float64(w.timed),
			"mb_per_epoch":     meanBytes(tr.Bytes) / 1e6,
			"test_acc":         tr.TestAcc,
			"peak_rss_mb":      r.PeakRSSMB,
			"boundary_ms_p50":  median(tr.BoundaryMs),
		}, map[string]int{
			"setup_s": 1, "epoch_ms_p50": len(tr.EpochMs), "train_s": 1, "time_to_acc_s": 1,
			"cpu_ms_per_epoch": len(tr.EpochMs), "mb_per_epoch": len(tr.Bytes), "test_acc": 1, "peak_rss_mb": 1,
			"boundary_ms_p50": len(tr.BoundaryMs),
		}
}

// summarise reduces a workload's repetitions and applies the checks that
// compare repetitions with each other. A repetition whose child failed
// counts its whole epoch budget as attempted and one operation as failed.
func summarise(w *workload, reps []*repResult, errs []error) *summary {
	s := &summary{w: w, reps: len(reps), values: map[string]float64{}, spread: map[string]float64{}, samples: map[string]int{}}
	for _, err := range errs {
		s.attempted += w.epochs()
		s.check(false, "%v", err)
	}
	byMetric := map[string][]float64{}
	for _, r := range reps {
		s.attempted += r.Attempted
		s.failed += r.Failed
		s.failures = append(s.failures, r.Failures...)
		vals, n := perRep(w, r)
		for name, v := range vals {
			byMetric[name] = append(byMetric[name], v)
			s.samples[name] += n[name]
		}
	}
	for name, vals := range byMetric {
		s.values[name] = median(vals)
		if m := s.values[name]; m != 0 {
			s.spread[name] = (slices.Max(vals) - slices.Min(vals)) / m
		}
	}
	// Same seed, same inputs: the byte count must repeat exactly and the
	// losses to summation order (bit for bit on the engine, whose reduction
	// order is fixed; the cluster sums remote contributions as they arrive).
	tol := lossTol
	if w.runtime == onEngine {
		tol = 0
	}
	for i := 1; i < len(reps); i++ {
		a, b := reps[0].Train, reps[i].Train
		s.check(meanBytes(a.Bytes) == meanBytes(b.Bytes), "repetition %d moved %.0f B/epoch, repetition 0 %.0f",
			i, meanBytes(b.Bytes), meanBytes(a.Bytes))
		at := lossesMatch(a.Losses, b.Losses, tol)
		s.check(at < 0, "repetition %d loss differs from repetition 0 at epoch %d", i, at)
	}
	return s
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

func printSummary(out io.Writer, s *summary) {
	fmt.Fprintf(out, "\n%s  (%d repetitions, target val acc %.2f, floor %.2f)\n", s.w.name, s.reps, s.w.target, s.w.floor)
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-18s %12.4f %-6s n=%-4d rep spread %-7s bound %s (%s is better)\n",
			d.name, s.values[d.name], d.unit, s.samples[d.name], pct(s.spread[d.name]), pct(d.bound), d.better)
	}
	for _, d := range demoted {
		fmt.Fprintf(out, "  %-18s %12.4f %-6s n=%-4d rep spread %-7s no bound   (%s is better)\n",
			d.name, s.values[d.name], d.unit, s.samples[d.name], pct(s.spread[d.name]), d.better)
	}
	share := 0.0
	if s.attempted > 0 {
		share = float64(s.failed) / float64(s.attempted)
	}
	fmt.Fprintf(out, "  %-18s %12.4f        %d failed of %d operations attempted\n", "fail_share", share, s.failed, s.attempted)
	for _, f := range s.failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
}

func printLayers(out io.Writer, r *repResult) {
	fmt.Fprintf(out, "\n%s  traced pass, per layer (0 = does not apply to this workload)\n", r.Workload)
	for _, d := range perLayer {
		note := ""
		switch d.name {
		case "gnn.epoch_ms_tail":
			note = fmt.Sprintf("  p%.0f of %d pooled epochs", r.TailPct, r.TailN)
		case "net.round_over_cluster":
			note = fmt.Sprintf("  base worker.round_ms.sem = %.4f ms", r.Layers["worker.round_ms.sem"])
		}
		fmt.Fprintf(out, "  %-34s %14.4f %s%s\n", d.name, r.Layers[d.name], d.unit, note)
	}
	fmt.Fprintf(out, "  %d failed of %d operations attempted\n", r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
}

// writeResults saves a full set's numbers with the host facts they were
// taken on; bench/baseline.json is one such file, committed.
func writeResults(path string, o *options, sums []*summary) error {
	type value struct {
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Spread  float64 `json:"rep_spread"`
		Samples int     `json:"samples"`
	}
	type entry struct {
		Workload  string             `json:"workload"`
		Reps      int                `json:"reps"`
		EndToEnd  map[string]value   `json:"end_to_end"`
		PerLayer  map[string]float64 `json:"per_layer,omitempty"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
	}
	out := struct {
		Host      map[string]any `json:"host"`
		Seed      int64          `json:"seed"`
		Workloads []entry        `json:"workloads"`
	}{
		Host: map[string]any{"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "os": runtime.GOOS, "arch": runtime.GOARCH},
		Seed: o.seed,
	}
	for _, s := range sums {
		e := entry{Workload: s.w.name, Reps: s.reps, EndToEnd: map[string]value{}, PerLayer: s.layers,
			Attempted: s.attempted, Failed: s.failed}
		for _, d := range endToEnd {
			e.EndToEnd[d.name] = value{s.values[d.name], d.unit, s.spread[d.name], s.samples[d.name]}
		}
		out.Workloads = append(out.Workloads, e)
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// worse is how much b is worse than a, as a share of a.
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// repeatSets runs two full sets of the same code and checks that no
// end-to-end median of the second is worse than the first by more than the
// metric's bound, nor the other way round: it is the benchmark's own test
// that its bounds are wider than its noise.
func repeatSets(stdout io.Writer, set []workload, o *options) (bool, error) {
	untraced := *o
	untraced.trace = false
	first, err := fullSet(stdout, set, &untraced)
	if err != nil {
		return false, err
	}
	second, err := fullSet(stdout, set, &untraced)
	if err != nil {
		return false, err
	}
	type row struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		First    float64 `json:"first"`
		Second   float64 `json:"second"`
		Gap      float64 `json:"gap"`
		Bound    float64 `json:"bound"`
		OK       bool    `json:"ok"`
	}
	var rows []row
	ok := true
	fmt.Fprintf(stdout, "\nrepeatability: two sets of the same code\n")
	fmt.Fprintf(stdout, "  %-18s %-18s %12s %12s %8s %8s\n", "workload", "metric", "first", "second", "gap", "bound")
	for i := range set {
		if first[i].failed+second[i].failed > 0 {
			ok = false
		}
		for _, d := range endToEnd {
			a, b := first[i].values[d.name], second[i].values[d.name]
			gap := max(worse(d, a, b), worse(d, b, a))
			r := row{set[i].name, d.name, a, b, gap, d.bound, gap <= d.bound}
			rows = append(rows, r)
			mark := ""
			if !r.OK {
				ok = false
				mark = "  OVER"
			}
			fmt.Fprintf(stdout, "  %-18s %-18s %12.4f %12.4f %8s %8s%s\n", r.Workload, r.Metric, a, b, pct(gap), pct(d.bound), mark)
		}
	}
	buf, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return false, err
	}
	return ok, os.WriteFile(filepath.Join(o.out, "repeat.json"), append(buf, '\n'), 0o644)
}
