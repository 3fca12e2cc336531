package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"scgnn/internal/cluster"
	"scgnn/internal/compress"
	"scgnn/internal/core"
	"scgnn/internal/dist"
	"scgnn/internal/gnn"
	"scgnn/internal/nn"
	"scgnn/internal/sched"
	"scgnn/internal/tensor"
	"scgnn/internal/wire"
	"scgnn/internal/worker"
)

// layers holds per-layer metric values by name.
type layers map[string]float64

// width is the feature width of every aggregate round of the workloads'
// model (input 32, hidden 32), and so of every probe.
const width = hidden

// probeMsgs is the number of width-wide messages a codec probe encodes per
// sample: about the cross arcs one 10k partition pair ships per round.
const probeMsgs = 4096

// medianTime runs fn samples times and returns the median duration.
func medianTime(samples int, fn func()) time.Duration {
	d := make([]float64, samples)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d))
}

func randomValues(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(float32(rng.NormFloat64()))
	}
	return v
}

func randomMatrix(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	copy(m.Data, randomValues(rng, rows*cols))
	return m
}

// kernelProbes times the codec and dense kernels through their public
// functions at the workload's own node and class counts. They run on every
// workload: the prediction for a codec change is that these move everywhere
// while the end-to-end metrics move only where the codec is on the path.
func kernelProbes(j *job, out layers) {
	rng := rand.New(rand.NewSource(j.seed))
	n, classes := j.ds.NumNodes(), j.ds.NumClasses

	// wire: encode probeMsgs messages into one batch, then stream-decode it.
	payloads := randomValues(rng, probeMsgs*width)
	vals := float64(probeMsgs * width)
	msg := wire.Message{Kind: wire.KindNode}
	aq := compress.NewAdaptiveQuantizer(2, 8, 0)
	encoders := []struct {
		name string
		add  func(b *wire.Batch, m *wire.Message)
	}{
		{"fp32", func(b *wire.Batch, m *wire.Message) { b.Add(m) }},
		{"q8", func(b *wire.Batch, m *wire.Message) { b.AddQuantized(m, 8) }},
		{"q4", func(b *wire.Batch, m *wire.Message) { b.AddQuantized(m, 4) }},
		{"adaptive", func(b *wire.Batch, m *wire.Message) { b.AddAdaptive(m, aq.ChooseBits(m.Payload)) }},
	}
	acc := make([]float64, width)
	for _, enc := range encoders {
		var batch wire.Batch
		fill := func() {
			batch.Reset()
			for k := 0; k < probeMsgs; k++ {
				msg.Target = int32(k)
				msg.Payload = payloads[k*width : (k+1)*width]
				enc.add(&batch, &msg)
			}
		}
		fill() // grows the buffer once, as a persistent worker's has
		d := medianTime(15, fill)
		out["wire.encode_ns_per_val."+enc.name] = float64(d) / vals
		if enc.name == "adaptive" {
			continue
		}
		buf := batch.Bytes()
		d = medianTime(15, func() {
			dec := wire.NewDecoder(buf)
			for dec.More() {
				if _, err := dec.Next(); err != nil {
					panic(err) // the buffer was encoded three lines up
				}
				if err := dec.AXPY(0.5, acc); err != nil {
					panic(err)
				}
			}
		})
		out["wire.decode_ns_per_val."+enc.name] = float64(d) / vals
	}

	// compress: the fp64 quantiser, the residual store and the coin stream.
	q := compress.NewQuantizer(8)
	scratch := make([]float64, width)
	d := medianTime(15, func() {
		for k := 0; k < probeMsgs; k++ {
			copy(scratch, payloads[k*width:(k+1)*width])
			q.Roundtrip(scratch)
		}
	})
	out["compress.quant_ns_per_val"] = float64(d) / vals
	ef := compress.NewErrorFeedback()
	sent := make([]float64, width)
	d = medianTime(15, func() {
		for k := 0; k < probeMsgs; k++ {
			copy(scratch, payloads[k*width:(k+1)*width])
			ef.PreCompress(int64(k), scratch)
			ef.PostCompress(int64(k), scratch, sent)
		}
	})
	out["compress.ef_ns_per_val"] = float64(d) / vals
	sampler := compress.NewSampler(0.5, j.seed)
	const draws = 1 << 20
	d = medianTime(9, func() {
		for k := 0; k < draws; k++ {
			sampler.Keep()
		}
	})
	out["compress.sampler_ns_per_draw"] = float64(d) / draws

	// tensor: the three products a Linear layer runs per epoch, N×32·32×32.
	a, b := randomMatrix(rng, n, width), randomMatrix(rng, n, width)
	sq := randomMatrix(rng, width, width)
	dstN, dstSq := tensor.New(n, width), tensor.New(width, width)
	out["tensor.matmul_ms"] = ms(medianTime(7, func() { tensor.MatMulInto(dstN, a, sq) }))
	out["tensor.matmul_atb_ms"] = ms(medianTime(7, func() { tensor.MatMulATBInto(dstSq, a, b) }))
	out["tensor.matmul_abt_ms"] = ms(medianTime(7, func() { tensor.MatMulABTInto(dstN, a, sq) }))

	// One gather of the workload's mean degree per output row.
	deg := int(j.w.shape.degree)
	rows := make([]int32, n*deg/8) // an eighth of the graph's arcs is plenty
	wts := randomValues(rng, len(rows))
	for i := range rows {
		rows[i] = int32(rng.Intn(n))
	}
	d = medianTime(7, func() {
		for at := 0; at+deg <= len(rows); at += deg {
			clear(acc)
			tensor.GatherAXPY(acc, a, rows[at:at+deg], wts[at:at+deg], 1)
		}
	})
	out["tensor.gather_axpy_ns_per_term"] = float64(d) / float64(len(rows)/deg*deg)

	logits := randomMatrix(rng, n, classes)
	out["nn.loss_ms"] = ms(medianTime(7, func() {
		nn.MaskedCrossEntropy(logits, j.ds.Labels, j.ds.TrainMask)
	}))
	model := j.newModel(gnn.NewLocalAggregator(j.ds.Graph))
	for _, p := range model.Params() {
		copy(p.Grad.Data, randomValues(rng, len(p.Grad.Data)))
	}
	opt := nn.NewAdam(learnRate)
	out["nn.adam_step_us"] = float64(medianTime(31, func() { opt.Step(model.Params()) })) / float64(time.Microsecond)
}

// roundTimes is what timing aggregate rounds on one runtime yields.
type roundTimes struct {
	ms    float64 // median forward and median backward round, averaged
	bytes float64 // partition-crossing bytes per round
	msgs  float64
}

// warmEpochs run before anything is measured, so that buffers and residual
// slots have reached steady state.
const warmEpochs = 2

// timeRounds drives epochs of aggregate rounds at the model's width as a
// training epoch's layer does (the prologue, one forward round, one
// backward) and times every round after the warm-up epochs.
func timeRounds(epochs int, startEpoch func(int), round func(backward bool) error) (roundTimes, error) {
	var fwd, bwd []float64
	for e := 0; e < warmEpochs+epochs; e++ {
		startEpoch(e)
		for _, backward := range []bool{false, true} {
			t0 := time.Now()
			if err := round(backward); err != nil {
				return roundTimes{}, err
			}
			switch d := ms(time.Since(t0)); {
			case e < warmEpochs:
			case backward:
				bwd = append(bwd, d)
			default:
				fwd = append(fwd, d)
			}
		}
	}
	return roundTimes{ms: (median(fwd) + median(bwd)) / 2}, nil
}

// roundAllocs counts heap allocations per steady-state round the way the
// repo's own 0 allocs/op gate (testing.AllocsPerRun) does: on one P, where
// the runtime's sudog cache cannot run dry, with the collector off, and
// rounded down.
func roundAllocs(startEpoch func(int), round func(backward bool) error) (float64, error) {
	const epochs = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if _, err := timeRounds(0, startEpoch, round); err != nil { // warm-up only
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for e := warmEpochs; e < warmEpochs+epochs; e++ {
		startEpoch(e)
		for _, backward := range []bool{false, true} {
			if err := round(backward); err != nil {
				return 0, err
			}
		}
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / (2 * epochs)), nil
}

// probeEpochs is how many epochs the round and baseline probes time.
func (j *job) probeEpochs() int {
	if j.ds.NumNodes() > 20_000 {
		return 4
	}
	return 8
}

// roundConfigs maps a round probe's suffix to the exchange it builds.
func (j *job) roundConfig(mode string) dist.Config {
	switch mode {
	case "van":
		return dist.Vanilla()
	case "q8":
		return dist.Quant(8)
	case "q8ef":
		cfg := dist.Quant(8)
		cfg.ErrorFeedback = true
		return cfg
	case "adaptive":
		cfg := dist.Quant(8)
		cfg.AdaptiveQuant = true
		return cfg
	case "sem":
		if j.cfg.Semantic {
			return j.cfg // the workload's own plan shape (K=8 or EEP)
		}
		return semanticK8(j.seed, 0)
	}
	panic("bench: unknown round mode " + mode)
}

// probeWorkerRounds times rounds of a fresh cluster in the given mode and,
// when asked, counts their allocations afterwards.
func (j *job) probeWorkerRounds(mode string, countAllocs bool) (rt roundTimes, allocs float64, err error) {
	c := worker.NewClusterFromConfig(j.ds.Graph, j.part, nparts, j.roundConfig(mode))
	defer c.Close()
	dst := tensor.New(j.ds.NumNodes(), width)
	round := func(backward bool) error { return c.AggregateInto(dst, j.ds.Features, backward) }
	epochs := j.probeEpochs()
	if rt, err = timeRounds(epochs, c.StartEpoch, round); err != nil {
		return rt, 0, err
	}
	bytes, msgs := c.Traffic()
	rounds := float64(2 * (epochs + warmEpochs))
	rt.bytes, rt.msgs = float64(bytes)/rounds, float64(msgs)/rounds
	if countAllocs {
		allocs, err = roundAllocs(c.StartEpoch, round)
	}
	return rt, allocs, err
}

func (j *job) probeEngineRounds(mode string) (roundTimes, error) {
	eng := dist.NewEngine(j.ds.Graph, j.part, nparts, j.roundConfig(mode))
	return timeRounds(j.probeEpochs(), eng.StartEpoch, func(backward bool) error {
		if backward {
			eng.Backward(j.ds.Features)
		} else {
			eng.Forward(j.ds.Features)
		}
		return nil
	})
}

func (j *job) probeFleetRounds(mode, dir string) (roundTimes, error) {
	f, err := startFleet(filepath.Join(dir, "probe"), nparts)
	if err != nil {
		return roundTimes{}, err
	}
	defer f.stop()
	if err := f.coord.Setup(j.ds.Graph, j.part, j.roundConfig(mode)); err != nil {
		return roundTimes{}, err
	}
	return timeRounds(j.probeEpochs(), f.coord.StartEpoch, func(backward bool) error {
		_, err := f.coord.Round(j.ds.Features, backward)
		return err
	})
}

// roundProbes runs the round-level probes the workload names.
func (j *job) roundProbes(dir string, out layers) error {
	first := true
	for _, p := range j.w.probes {
		var rt roundTimes
		var err error
		layer, mode, _ := strings.Cut(p, ".")
		switch layer {
		case "worker":
			var allocs float64
			rt, allocs, err = j.probeWorkerRounds(mode, first)
			if err == nil && first {
				// The counts describe the workload's own exchange: the first
				// worker probe each workload lists is its own mode.
				out["worker.round_allocs"] = allocs
				out["worker.bytes_per_round"] = rt.bytes
				out["worker.msgs_per_round"] = rt.msgs
				first = false
			}
			out["worker.round_ms."+mode] = rt.ms
		case "dist":
			rt, err = j.probeEngineRounds(mode)
			out["dist.round_ms."+mode] = rt.ms
		case "net":
			rt, err = j.probeFleetRounds(mode, dir)
			out["net.round_ms."+mode] = rt.ms
		case "sched":
			j.probeSched(out)
		case "replan":
			err = j.probeReplan(out)
		default:
			err = fmt.Errorf("unknown probe %q", p)
		}
		if err != nil {
			return fmt.Errorf("probe %s: %w", p, err)
		}
	}
	if base := out["worker.round_ms.sem"]; base > 0 && out["net.round_ms.sem"] > 0 {
		out["net.round_over_cluster"] = out["net.round_ms.sem"] / base
	}
	return nil
}

// probeSched times the pure decision function over the workload's sixteen
// ordered pairs with every signal present.
func (j *job) probeSched(out layers) {
	policy := j.cfg.Sched
	ladder := sched.Ladder(j.cfg.BaseSetting())
	prev := make([]int, nparts*nparts)
	sigs := make([]sched.Signals, nparts*nparts)
	for i := range sigs {
		sigs[i] = sched.Signals{Draws: 1000, BitsSum: 5000, BitsCalls: 1000, EFUnits: 100, EFCorrected: 3200}
	}
	const calls = 1000
	d := medianTime(9, func() {
		for e := 0; e < calls; e++ {
			sched.Decide(policy, e%j.w.epochs(), j.seed, prev, sigs, len(ladder)-1)
		}
	})
	out["sched.decide_us"] = float64(d) / calls / float64(time.Microsecond)
}

// probeReplan times the planner's incremental path on its own: a plan cache
// toggled between the workload's two partitions, and the inertia sweep over
// the largest pair's similarity embedding.
func (j *job) probeReplan(out layers) error {
	pc, err := core.NewPlanCache(j.ds.Graph, j.part, nparts, j.cfg.Plan)
	if err != nil {
		return err
	}
	var points *tensor.Matrix
	for _, p := range pc.Plans() {
		if e := p.Grouping.Embedding; e != nil && (points == nil || e.Rows > points.Rows) {
			points = e
		}
	}
	var times []float64
	var dirty []int
	for i := 0; i < 6; i++ {
		next := j.alt
		if i%2 == 1 {
			next = j.part
		}
		t0 := time.Now()
		if dirty, err = pc.Repartition(next); err != nil {
			return err
		}
		times = append(times, ms(time.Since(t0)))
	}
	out["core.replan_ms"] = median(times)
	out["core.replan_dirty_pairs"] = float64(len(dirty))
	if points != nil {
		out["cluster.inertia_curve_ms"] = ms(medianTime(3, func() {
			cluster.InertiaCurve(points, 2, 20, rand.New(rand.NewSource(j.seed)), cluster.KMeansConfig{})
		}))
	}
	return nil
}

// baselineEpochs times plain epochs of the workload's model on agg, after
// one warm-up epoch.
func (j *job) baselineEpochs(agg gnn.Aggregator, epochs int) (float64, []float64, error) {
	model := j.newModel(agg)
	ds := j.ds
	t := gnn.NewTrainer(model, ds.Features, ds.Labels, ds.TrainMask, ds.ValMask, ds.TestMask,
		gnn.TrainConfig{Epochs: epochs + 1, LR: learnRate})
	var times, losses []float64
	for !t.Done() {
		t0 := time.Now()
		st, err := t.RunEpoch()
		if err != nil {
			return 0, nil, err
		}
		if st.Epoch > 0 {
			times = append(times, ms(time.Since(t0)))
		}
		losses = append(losses, st.Loss)
	}
	return median(times), losses, nil
}

func fileMB(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size()) / 1e6
}
