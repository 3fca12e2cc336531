package main

import "slices"

// metricDef names one metric the benchmark prints. BENCHMARK.json repeats
// the names, units, directions and bounds; the package test holds the two
// equal.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the reference median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	bound float64
}

// endToEnd is measured with tracing off; each value is the median over a
// run's repetitions of the per-repetition value. These are the metrics whose
// spread over ten seeds stays inside the bound on this host. The timing
// bounds are the widest the driver allows, and none is wider than setup_s's:
// the host drifts by 20 % and more for minutes at a time (README,
// "Repeatability").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"epoch_ms_p50", "ms", "lower", 0.25},
	{"train_s", "s", "lower", 0.25},
	{"cpu_ms_per_epoch", "ms", "lower", 0.25},
	{"mb_per_epoch", "MB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// demoted are end-to-end metrics by nature that cannot hold a bound across
// seeds (README, "Demoted metrics"): how many epochs a seed needs to the
// target, the accuracy nine epochs reach at 100k, and a boundary stall only
// two workloads have. They are measured with tracing off like the rest,
// printed beside them, and listed per layer in BENCHMARK.json, without a
// bound. Accuracy is still held by each workload's floor, a correctness
// check.
var demoted = []metricDef{
	{"time_to_acc_s", "s", "lower", 0},
	{"test_acc", "share", "higher", 0},
	{"boundary_ms_p50", "ms", "lower", 0},
}

// perLayer comes from the traced pass: span self times and the layer
// probes. A metric that does not apply to a workload reads 0 there.
var perLayer = slices.Concat(demoted, []metricDef{
	{"datasets.gen_s", "s", "lower", 0},
	{"partition.partition_s", "s", "lower", 0},
	{"graph.buckets_s", "s", "lower", 0},
	{"core.plan_s", "s", "lower", 0},
	{"dist.build_s", "s", "lower", 0},
	{"worker.build_s", "s", "lower", 0},
	{"net.setup_s", "s", "lower", 0},

	{"core.replan_ms", "ms", "lower", 0},
	{"core.replan_dirty_pairs", "count", "lower", 0},
	{"cluster.inertia_curve_ms", "ms", "lower", 0},
	{"worker.repartition_ms", "ms", "lower", 0},

	{"worker.round_ms.van", "ms", "lower", 0},
	{"worker.round_ms.sem", "ms", "lower", 0},
	{"worker.round_ms.q8", "ms", "lower", 0},
	{"worker.round_ms.q8ef", "ms", "lower", 0},
	{"worker.round_ms.adaptive", "ms", "lower", 0},
	{"worker.round_allocs", "count", "lower", 0},
	{"worker.bytes_per_round", "B", "lower", 0},
	{"worker.msgs_per_round", "count", "lower", 0},
	{"dist.round_ms.van", "ms", "lower", 0},
	{"dist.round_ms.q8", "ms", "lower", 0},

	{"net.round_ms.sem", "ms", "lower", 0},
	{"net.round_ms.van", "ms", "lower", 0},
	{"net.hub_mb_per_epoch", "MB", "lower", 0},
	{"net.mesh_mb_per_epoch", "MB", "lower", 0},
	{"net.round_over_cluster", "ratio", "lower", 0},
	{"net.checkpoint_ms", "ms", "lower", 0},
	{"persist.ckpt_mb", "MB", "lower", 0},

	{"wire.encode_ns_per_val.fp32", "ns", "lower", 0},
	{"wire.encode_ns_per_val.q8", "ns", "lower", 0},
	{"wire.encode_ns_per_val.q4", "ns", "lower", 0},
	{"wire.encode_ns_per_val.adaptive", "ns", "lower", 0},
	{"wire.decode_ns_per_val.fp32", "ns", "lower", 0},
	{"wire.decode_ns_per_val.q8", "ns", "lower", 0},
	{"wire.decode_ns_per_val.q4", "ns", "lower", 0},
	{"compress.quant_ns_per_val", "ns", "lower", 0},
	{"compress.ef_ns_per_val", "ns", "lower", 0},
	{"compress.sampler_ns_per_draw", "ns", "lower", 0},

	{"tensor.matmul_ms", "ms", "lower", 0},
	{"tensor.matmul_atb_ms", "ms", "lower", 0},
	{"tensor.matmul_abt_ms", "ms", "lower", 0},
	{"tensor.gather_axpy_ns_per_term", "ns", "lower", 0},
	{"nn.loss_ms", "ms", "lower", 0},
	{"nn.adam_step_us", "us", "lower", 0},

	{"sched.decide_us", "us", "lower", 0},
	{"sched.rung_changes", "count", "lower", 0},

	{"gnn.forward_dense_ms", "ms", "lower", 0},
	{"gnn.backward_dense_ms", "ms", "lower", 0},
	{"gnn.agg_ms", "ms", "lower", 0},
	{"gnn.agg_share", "share", "lower", 0},
	{"gnn.dense_share", "share", "lower", 0},
	{"nn.loss_share", "share", "lower", 0},
	{"nn.opt_share", "share", "lower", 0},
	{"gnn.epoch_ms_tail", "ms", "lower", 0},
	{"gnn.cores_busy", "cores", "higher", 0},
	{"gnn.epoch_ms_1p", "ms", "lower", 0},
	{"gnn.local_epoch_ms", "ms", "lower", 0},
	{"gnn.trace_overhead_pct", "%", "lower", 0},
})
