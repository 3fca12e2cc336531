# SC-GNN reproduction — common targets.

GO ?= go

.PHONY: all build vet test race test-net one-sink examples verify cover loc fuzz fuzz-smoke bench bench-round bench-dense bench-all bench-scale profile experiments quick-experiments clean

all: build vet test race

# The arm64 cross-build keeps the no-assembly path (kernels_noasm.go in
# tensor, grid_noasm.go in compress: the only path off amd64) compiling; vet
# there checks the stubs against the declarations the amd64 .s files are
# checked against, in every package that has a .s file.
build:
	$(GO) build ./...
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor/ ./internal/compress/

# bench/ is a module of its own, which ./... does not reach; vetting it builds
# it against the product packages, so an API change that breaks the benchmark
# fails here.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...

# TestLaneWorkPinned pins every method lane's per-epoch bytes, messages and
# processing counters; they are exact integer sums, the same on one processor
# and on two, which the second line checks. TestQuickSuiteGolden holds every
# number of the quick experiment suite to internal/exp/testdata/quick.golden;
# it runs on the second line only, once on one processor and once on two,
# which holds every table deterministic across GOMAXPROCS.
test:
	$(GO) test -skip '^TestQuickSuiteGolden$$' ./...
	$(GO) test -cpu 1,2 -run '^TestLaneWorkPinned$$|^TestQuickSuiteGolden$$' ./internal/worker/ ./internal/exp/

# The concurrent surfaces: the worker runtime (including the oracle
# equivalence matrix over all Fig. 12(b) method combinations at GOMAXPROCS
# 1, 2 and 8), the engine that wraps it, the exchange core they walk (one
# goroutine per pair, per-pair streams), the planning pipeline (single-sweep
# DBG extraction fanned into concurrent per-pair plan builds and the sharded
# k-means sweep), and the communication scheduler whose decisions every
# runtime replays. The core package's TestScale100KSmoke makes this lane
# build the 100k streaming preset under the race detector on every verify.
# The dense side (tensor, nn, gnn) starts goroutines too since the row split:
# its packages ride the lane, and the kernel path test — every product and
# row-wise pass at 1/2/3/8 workers, the CSR gather, and the fuzz target's seed
# corpus (vector bodies against Go loops) — runs ten times over under the
# detector.
# So do the codec kernel matrices (compress's slice operations and the wire
# messages built on them, vector path against Go path against the per-value
# reference): they flip a package-level gate, which the detector should see.
# And so does the in-process driver's one piece of shared state: a round's
# frame slots are written in one fork-join and read in the next, by goroutines
# started afresh each time, with only the join between them —
# once with a worker stalled in each position (TestClusterArrivalOrderInvariant)
# and once across every lane, GOMAXPROCS 1, 2 and 8, a repartition and an
# eval pass (TestEngineEqualsCluster). The pruned k-means (seeding's
# triangle-inequality skip, the seeded first assignment step, the sweep's
# fan-out) runs ten times against its serial reference loops
# (TestKMeansMatchesReference). So does the sampled halo lane, ten times
# over: a receiver there walks the pair's coins to check the frame's presence
# bits, from a sampler value it takes off the pair's shared state
# (compress.Sampler.At) while other workers walk their own pairs, against the
# oracle and on the socket-free peer mesh (TestClusterEngineEquivalenceMatrix
# and TestPeerClusterEquivalenceMatrix, lane sampling).
race:
	$(GO) test -race ./internal/dist/... ./internal/worker/... ./internal/exchange/... \
		./internal/cluster/... ./internal/core/... ./internal/graph/... \
		./internal/sched/... ./internal/tensor/... ./internal/nn/... ./internal/gnn/...
	$(GO) test -race -count=10 -run 'TestKernelSIMDMatchesGeneric|TestRowwisePasses|TestParallelRows|FuzzTensorKernels' ./internal/tensor/
	$(GO) test -race -count=10 -run 'TestGridKernelsMatchPerValue|TestCodecKernelsMatchReference' ./internal/compress/ ./internal/wire/
	$(GO) test -race -count=10 -run 'TestClusterArrivalOrderInvariant' ./internal/worker/
	$(GO) test -race -count=10 -run 'TestEngineEqualsCluster' ./internal/dist/
	$(GO) test -race -count=10 -run 'TestKMeansMatchesReference' ./internal/cluster/
	$(GO) test -race -count=10 -run 'TestClusterEngineEquivalenceMatrix/^sampling$$|TestPeerClusterEquivalenceMatrix/^sampling$$' ./internal/worker/

# The multi-process lane: the whole socket transport package under the race
# detector (framing/control codecs, fault-injection matrix, cross-runtime
# equivalence, subprocess kill/respawn/restore/repartition), then a 2-process
# unix-socket training smoke through the real scgnn-node and scgnn-train
# -nodes binaries, checkpointing each boundary, then the same command again,
# which must resume from the last boundary and print the same test accuracy.
# Every connection keeps its frame buffers between frames, and a mesh link's
# are filled by its reader goroutine while the round loop decodes what it
# queued: the tests that pin who owns those bytes, the allocation gate over
# them, and the footprint test that holds a node to its shard (shard-row round
# matrices, plans without their DBGs, no Setup-sized connection buffer) run
# five times over under the detector.
test-net:
	$(GO) test -race ./internal/net/...
	$(GO) test -race -count=5 -run 'TestFleetSteadyStateAllocs|TestRetainedReader|TestMeshBatchOwnsData|TestAggregateIntoAndRoundAlternate|TestFleetHoldsShards' ./internal/net/
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT INT TERM && \
	$(GO) build -o "$$dir/" ./cmd/scgnn-node ./cmd/scgnn-train && \
	run() { "$$dir/scgnn-train" -node-bin "$$dir/scgnn-node" \
		-nodes "$$dir/n0.sock,$$dir/n1.sock" \
		-method quant -bits 8 -epochs 3 -checkpoint "$$dir/job.ck"; } && \
	first=$$(run) && echo "$$first" && second=$$(run) && echo "$$second" && \
	acc=$$(echo "$$first" | grep '^test accuracy') && \
	echo "$$second" | grep -q '^resumed   epoch 2 ' && \
	[ "$$acc" = "$$(echo "$$second" | grep '^test accuracy')" ] && \
	echo "test-net: 2-process smoke ok (resumed run: $$acc)"

# Coverage floors on the packages the incremental replanning subsystem lives
# in — new code there must arrive tested. Floors sit a few points under the
# current numbers (core 96%, graph 97%, cluster 91%) so routine churn passes
# while an untested subsystem landing in one of them fails the gate. The
# scheduler package holds a 90% floor (currently 100%): its decisions must
# replay bit-identically on three runtimes, so untested branches there are
# cross-runtime divergence waiting to happen. The exchange core holds the same
# floor for the same reason (currently 99%): every runtime replays its coins.
# So do compress (85, currently 87%) and wire (95, currently 100%): they hold
# the quantisation grid and the frames every runtime's payloads pass through.
cover:
	@for spec in ./internal/core:90 ./internal/graph:90 ./internal/cluster:85 ./internal/net:85 ./internal/sched:90 ./internal/exchange:90 \
			./internal/compress:85 ./internal/wire:95; do \
		pkg=$${spec%:*}; floor=$${spec##*:}; \
		line=$$($(GO) test -cover $$pkg) || { echo "$$line"; exit 1; }; \
		pct=$$(echo "$$line" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage line for $$pkg"; exit 1; fi; \
		if awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit !(p < f) }'; then \
			echo "cover: $$pkg at $$pct% is below the $$floor% floor"; exit 1; \
		fi; \
		echo "cover: $$pkg $$pct% (floor $$floor%)"; \
	done

# Non-test Go lines outside bench/ — ROADMAP aim 2's number, counted the one
# way the acceptance criteria count it.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -print0 | xargs -0 cat | wc -l

# Coverage-guided fuzzing of the wire decoders, the round's decode seam (any
# bytes as one peer's frame in a 4-part cluster), the codec kernels (vector and
# Go paths against the per-value reference), the tensor kernels (the CSR
# gather, the ReLU mask passes and the column sum: vector bodies against Go
# loops), the error-feedback store (flat slabs against the map oracle) and the
# arc-bucket differ
# (go test -fuzz accepts one target per invocation). FUZZTIME=10m for a soak;
# the checked-in seed corpora under */testdata/fuzz/ are the starting point
# either way. FuzzKMeansMatchesReference holds the pruned k-means to its
# reference loops, bit for bit, on any point cloud the bytes describe;
# FuzzCheckpointDecoders holds the checkpoint and peer-state decoders to
# typed errors and canonical bytes.
FUZZTIME ?= 2m
fuzz:
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzDecoder$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzBatchRoundtrip$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzGridKernels$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/tensor/ -run '^$$' -fuzz '^FuzzTensorKernels$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/worker/ -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/compress/ -run '^$$' -fuzz '^FuzzErrorFeedback$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/graph/ -run '^$$' -fuzz '^FuzzDiffDBGs$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/cluster/ -run '^$$' -fuzz '^FuzzKMeansMatchesReference$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/net/ -run '^$$' -fuzz '^FuzzFrameDecoder$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/net/ -run '^$$' -fuzz '^FuzzFrameStream$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/net/ -run '^$$' -fuzz '^FuzzEpoch$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/net/ -run '^$$' -fuzz '^FuzzCheckpointDecoders$$' -fuzztime=$(FUZZTIME)

# Short fuzz pass for the verify gate / CI.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=10s

# One sink and one in-process driver in production: the retired second
# implementations (the kernels' per-member twins, the engine's private delay
# cache and staging arena, the schedule-free round runtime and the engine's own
# fork-join) may only ever reappear in test code — and so may the retired
# per-message wire header and the fabric's per-message header billing. And
# one side decision: in internal/gnn only the shared layer helper (layer.go's
# aggLinear, which picks the side of W by MultipliesFirst) calls aggregate(,
# so GCN and SAGE cannot grow a second copy of the rule. And one full-batch
# training loop: only gnn.Trainer builds an optimizer, so dist.Run and the
# facade cannot grow their own loop back, and only dist's run loop
# (dist.Train) builds a gnn.Trainer, so no command can grow a second run
# driver; bench/'s traced loop is outside the count. And one consumer of gnn.RoundReuser: only layer.go's aggLinear asks
# an aggregator whether a round may be reused, so no other code can skip a
# round behind the round-ordinal contract (an implementation may forward the
# question on its own declaration line, as dist.Engine does to its cluster).
# And one in-process training entry point: dist.Run (a worker.Cluster behind a
# validation) is what the facade, the commands and the experiments train on;
# dist.NewEngine is left to dist itself, tests and bench/. And goroutine
# counts and feature storage stay the code's call: no exported Workers field,
# and no mmap feature store (its allocator, the dataset knob and the by-name
# constructor that took it). And one
# DBG adjacency: graph.DBG.Adj is a bitvec.CSR, with no dense bit matrix, no
# interface over two representations and no switch that picks one. And every
# entry point has a consumer: no multilevel partitioner (the paper's three
# families are the partitioners), no dataset file format (the facade's
# by-name LoadDataset lives outside internal/ and cmd/), no Markdown table
# export, and no scgnn-plan beside scgnn-inspect, which builds and exports
# the plans. And one intersection count in the planner: the embedding fill's
# pivot masks, with no per-pair sorted-list merge beside them. And one binary
# codec: checkpoints and node state ride net's control codec, so no encoding/gob
# and no internal/persist. And one recovery path on the fleet: Connect, Setup on
# the partition in force and a checkpoint restore, with no mesh rebuild or node
# replacement beside it; and a two-frame scheduled epoch boundary, whose levels
# ride the Epoch frame, with no schedule-update frame beside it. And coins
# without streams: a sampling coin is a function of (pair, epoch, round, unit),
# so there is no second sampler, no replay of other replicas' coins, no
# sampler position in a checkpoint and no fast-forward, and neither the codecs
# nor the exchange core draw from math/rand. And one baseline wire: the halo,
# a message per (boundary row, peer) fanned out at the receiver, so no encode
# memo, no repeated message bytes and no residual records shared between
# units. And one traffic accumulator: each worker's simnet.Tally, folded into
# the fabric after the round (or shipped in RoundDone for the coordinator to
# fold), with no nparts-squared shard counter, no row export and no drain.
# And one sampling coin: a boundary row's (or a plan group's) per pair and
# round, so no per-arc coins, no switch between coin kinds and no receiver
# replaying an arc's coin. And one scheduler signal: error feedback's
# corrections per unit against a fixed threshold, so no trigger knobs and no
# adaptive-width counters riding the pair streams, the frames or the
# checkpoint; and one adaptive width rule (compress.AdaptiveUpTo, taken by
# value), so no quantizer object per pair outside compress. And one receive
# path: every inbound unit — a plan group, an O2O residual or a halo star —
# decoded once into the staging row of its candidate index, then one compiled
# receive gather per frame (a semantic frame's terms weighed per term by the
# plan, a halo frame's by the receiving rows' coefficients), so no per-arc
# fan-out over a star's receivers, no scatter of a group payload over its
# members (ScatterAXPY, CompileDeliver), no residual decoded straight into its
# row (dec.AXPY) and no Target choosing between them; and no per-term weight
# array in the local plan, whose weights are the coefficients' products.
one-sink:
	@! grep -rn 'useReference\|DelayCache\|pairBuf\|NewRounds\|worker\.Rounds\|forEachTask\|putHeader\|MsgHeaderBytes\|Fabric) Send(' --include='*.go' . | grep -v _test.go
	@! grep -n 'aggregate(' internal/gnn/*.go | grep -v '_test\.go:\|^internal/gnn/layer\.go:'
	@! grep -rn 'nn\.NewAdam(' --include='*.go' . | grep -v '_test\.go:\|^\./internal/nn/\|^\./internal/gnn/trainer\.go:\|^\./bench/'
	@! grep -rn 'gnn\.NewTrainer(' --include='*.go' . | grep -v '_test\.go:\|^\./internal/gnn/\|^\./internal/dist/runner\.go:\|^\./bench/'
	@! grep -rn '\.ReuseRound(' --include='*.go' . | grep -v '_test\.go:\|^\./internal/gnn/layer\.go:\|^[^:]*:[0-9]*:func ('
	@! grep -rn 'dist\.NewEngine(' --include='*.go' . | grep -v '_test\.go:\|^\./internal/dist/\|^\./bench/'
	@! grep -rnE 'MappedAlloc|AllocFeatures|ByNameWith|syscall\.Mmap|^\s+Workers\s+[a-z*[]' --include='*.go' . | grep -v '_test\.go:'
	@! grep -rnE 'SetDBGRepr|DBGRepr|bitvec\.Matrix|bitvec\.Bits|NewMatrix\(' --include='*.go' . | grep -v '_test\.go:'
	@! grep -rnE 'Multilevel|multilevelPartition|SaveDataset|persist\.LoadDataset|datasetWire|WriteMarkdown' --include='*.go' . | grep -v '_test\.go:'
	@! grep -rn 'LoadDataset' --include='*.go' internal cmd | grep -v '_test\.go:'
	@! test -e cmd/scgnn-plan
	@! grep -rnE 'RowAndCount|RowOrCount|intersectCount|gallopRatio' --include='*.go' . | grep -v '_test\.go:'
	@! grep -rnE '"encoding/gob"|"scgnn/internal/persist"' --include='*.go' . | grep -v '_test\.go:'
	@! grep -rnE 'Remesh|RecoverNode|SchedUpdate|frameRemesh|frameSchedUpdate' --include='*.go' . | grep -v '_test\.go:'
	@! grep -rnE 'GhostAdvance|NodeSampler|SamplerDraws|NodeState|randSource|\.Skip\(' --include='*.go' . | grep -v '_test\.go:'
	@! grep -rn '"math/rand"' --include='*.go' internal/compress internal/exchange | grep -v '_test\.go:'
	@! grep -rnE 'senderMemo|memoHead|memoSlot|\) Repeat\(|\) Ref\(|\.refs\b' --include='*.go' internal | grep -v '_test\.go:'
	@! grep -rnE 'ShardCounter|DrainRow|TrafficDelta|Fabric\) Drain\(' --include='*.go' . | grep -v '_test\.go:'
	@! grep -rnE 'SampleNodes|NodeCoins|EdgeCoins|Survives\(' --include='*.go' . | grep -v '_test\.go:'
	@! grep -rnE 'BitsTrigger|EFTrigger|AdaptiveBitsSum|AdaptiveCalls|sched-bits-trigger|sched-ef-trigger' --include='*.go' . | grep -v '_test\.go:'
	@! grep -rn '\*compress\.AdaptiveQuantizer' --include='*.go' . | grep -v '_test\.go:\|^\./internal/compress/'
	@! grep -rnE 'lp\.w\b|^\s+w\s+\[\]float64' --include='*.go' internal/worker | grep -v '_test\.go:'
	@! grep -n 'Recv\[' internal/worker/round.go
	@! grep -rnE 'ScatterAXPY|scatterAXPYQuads|CompileDeliver' --include='*.go' . | grep -v '_test\.go:'
	@! grep -rn ') Target(' --include='*.go' internal/exchange
	@! grep -rn 'dec\.AXPY' --include='*.go' internal/worker
	@! grep -rnE 'PairPlans|\.O2O\b' --include='*.go' internal/worker | grep -v '_test\.go:'
	@! grep -rn 'func Transpose(' --include='*.go' internal/core
	@! grep -n 'Semantic()' internal/exchange/walk.go

# Every program under examples/, built into a temporary directory and run to
# the end: go build compiles them, but only running them shows a facade call
# that fails at run time. Any non-zero exit fails the target.
examples:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT INT TERM && \
	$(GO) build -o "$$dir/" ./examples/... && \
	for ex in examples/*/; do \
		name=$$(basename "$$ex"); \
		"$$dir/$$name" > "$$dir/$$name.out" 2>&1 || { cat "$$dir/$$name.out"; echo "examples: $$name failed"; exit 1; }; \
		echo "examples: $$name ok"; \
	done

# Tier-1 verification gate (ROADMAP.md): everything must build, pass tests,
# survive the race detector on the concurrent packages (the multi-process
# transport lane included), hold the coverage floors, and hold up under a
# short coverage-guided fuzz of the trust boundaries (wire decoders,
# arc-bucket differ, transport framing + control codecs), and run every
# example to the end.
verify: build vet one-sink test examples race test-net cover fuzz-smoke

# Cluster-round + halo-exchange benchmarks with allocation counts, on one core
# and on two; the JSON lands in BENCH_worker.json under "after" (the committed
# "before" baseline is preserved by the merge). The "exchange-core-before" /
# "exchange-core" keys hold this lane's and bench-round's rows from one run
# each side of the exchange-core extraction (DESIGN.md §15); "one-grid-before" /
# "one-grid" hold the same rows either side of the move onto one quantisation
# grid, which put every quantised encode and decode through compress.Grid;
# "codec-before" / "codec" hold the quantised rounds (BenchmarkClusterRoundQuant*,
# …AdaptiveInto) and the wire-level codec rows (a batch encoded per codec,
# streamed back through Decoder.AXPY; ns/val beside ns/op), which ride this
# lane too, either side of the grid's move from per-value loops to slice kernels;
# "engine-driver-before" / "engine-driver" hold BenchmarkEngineExchange8P* and
# BenchmarkEpoch* either side of the engine becoming a driver of the round body
# (the RowSharded lanes went with the schedule they measured; their rows stay
# under the older keys); "one-driver-before" / "one-driver" hold this lane's
# cluster and engine rows and bench-round's BenchmarkRoundEndToEnd either side
# of the cluster becoming the one in-process driver (alternating prebuilt test
# binaries, every line kept); "dead-round-before" / "dead-round" hold
# BenchmarkEpoch* either side of the models dropping layer 0's backward round
# (same method; BENCH_dense.json carries BenchmarkDenseEpoch under the same
# two keys). BenchmarkEpoch* — one dist.Run epoch per exchange, construction
# included — ride this lane, and so does BenchmarkErrorFeedback (the residual
# store's Pre+PostCompress over 70k units, ns/val): "ef-flat-before" /
# "ef-flat" hold it, BenchmarkClusterRoundQuantEFInto and BenchmarkEpoch*
# either side of the residual map becoming one flat slab per (pair, round
# slot) (alternating prebuilt test binaries, every line kept);
# "encode-once-before" / "encode-once" hold BenchmarkClusterRound{Vanilla,
# Sampled,Adaptive,Quant,QuantEF}Into either side of a per-arc frame copying a
# sender's message bytes (wire.Batch.Repeat) instead of quantising them again
# (same method); "ef-shared-before" / "ef-shared" hold
# BenchmarkClusterRound{QuantEF,SampledQuantEF}Into either side of the
# error-feedback residuals becoming records shared by reference (same method,
# the sampled row added to the parent's test file for its side); "halo-before" /
# "halo" hold every BenchmarkClusterRound*Into row either side of the
# baseline lanes shipping one message per (boundary row, peer) in place of
# one per cross arc (same method, four alternations); "halo-gather-before" /
# "halo-gather" hold BenchmarkClusterRound{Vanilla,Quant,QuantEF,Sampled}Into
# either side of the halo receive becoming one compiled gather per frame
# (same method, four alternations); "semantic-receive-before" /
# "semantic-receive" hold BenchmarkClusterRound{Semantic,Vanilla}Into either
# side of the semantic frames joining that gather (same method, four
# alternations).
# The planning-pipeline benchmarks (one-sweep DBG extraction + concurrent plan
# builds + EEP sweep, plus the 100k-preset dirty-fraction replan sweep
# BenchmarkReplan100K*) refresh BENCH_plan.json the same way;
# "csr-only-before" / "csr-only" hold this plan lane either side of every DBG
# adjacency becoming a CSR (the dense bit matrix deleted; alternating prebuilt
# test binaries, every line kept); "eep-prune-before" / "eep-prune" hold
# BenchmarkPlanPipeline8P/16P and BenchmarkReplan* either side of the exact
# pruning in the EEP planner (k-means++ triangle-inequality skip, seeded first
# assignment, pivot-mask embedding fill; same method). The scheduler-overhead rows (per-boundary merge+decide cost
# across pair counts) land in BENCH_plan.json under "sched".
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkClusterRound|BenchmarkEngineExchange|BenchmarkEncodeQuantized|BenchmarkDecoderAXPY|BenchmarkEpoch|BenchmarkErrorFeedback' \
		-benchmem -cpu 1,2 . ./internal/worker/ ./internal/wire/ ./internal/compress/ \
		| $(GO) run ./cmd/scgnn-benchjson -o BENCH_worker.json -key after
	$(GO) test -run '^$$' -bench 'BenchmarkAllDBGs|BenchmarkPlanPipeline|BenchmarkReplan' -benchmem -cpu 1,2 . \
		| $(GO) run ./cmd/scgnn-benchjson -o BENCH_plan.json -key after
	$(GO) test -run '^$$' -bench 'BenchmarkSchedDecide' -benchmem ./internal/sched/ \
		| $(GO) run ./cmd/scgnn-benchjson -o BENCH_plan.json -key sched

# The round hot-path lane: per-worker local aggregation and full semantic
# rounds at the 10k/100k scale presets on the compiled gather plans (the
# "/reference" rows under the older keys are the pre-kernel per-member loops,
# which now live only in the test oracle). Rows merge into BENCH_worker.json
# under "round", preserving the other keys.
# BenchmarkCoordinatorRound is the same round through a four-node unix-socket
# fleet (semantic and vanilla, widths 32 and 16); the "hub-before" / "hub"
# keys hold its rows either side of the retained framed connections, and
# "shard-rows-before" / "shard-rows" this lane's rows either side of the
# fleet node moving onto its shard's rows, and "header-free-before" /
# "header-free" BenchmarkCoordinatorRound with `make bench`'s
# BenchmarkClusterRound* either side of messages losing their per-message
# headers (alternating prebuilt test binaries, every line kept).
# "prefetch-before" / "prefetch" hold this lane's rows either side of the
# local phase becoming one register-resident, prefetching CSR gather
# (tensor.GatherCSR); BenchmarkLocalPhase's "/parallel" rows run the
# partitions' local phases at once, one goroutine each, as a round does.
# The alloc ceiling itself is gated by tests that ride `make verify`
# (TestKernelAllocs, TestClusterSteadyStateAllocs, TestFleetSteadyStateAllocs),
# not by this lane.
bench-round:
	$(GO) test -run '^$$' -bench 'BenchmarkLocalPhase|BenchmarkRoundEndToEnd|BenchmarkCoordinatorRound' -benchmem -cpu 1,2 \
		./internal/worker/ ./internal/net/ \
		| $(GO) run ./cmd/scgnn-benchjson -o BENCH_worker.json -key round

# The dense lane: the three products of a linear layer, the row-wise passes
# beside them (BenchmarkRowwise: ReLU record, its gate and ColSumsInto) and a
# whole dense epoch (everything but the aggregate) at 10k×32 and 100k×32,
# vector and Go kernels in one run, on one core and on two. Rows land in BENCH_dense.json
# under "after"; its "before" holds the same benchmarks at the commit before
# the AVX2 products (where the simd and generic rows ran the same Go loops),
# "dead-round-before" / "dead-round" BenchmarkDenseEpoch either side of
# the first layer dropping its dX product, and "one-exp-before" / "one-exp"
# its simd rows either side of the loss taking one exp a logit and writing
# its gradient over the logits, and the layers reusing their forward buffers
# (DESIGN.md §16; alternating prebuilt test binaries, every line kept), and
# "prefetch-before" / "prefetch" this lane's rows either side of the AVX2
# mask and column-sum bodies (before, BenchmarkRowwise's simd rows run the Go
# loops).
bench-dense:
	$(GO) test -run '^$$' -bench 'BenchmarkMatMulInto|BenchmarkATBInto|BenchmarkABTInto|BenchmarkRowwise|BenchmarkDenseEpoch' \
		-benchmem -cpu 1,2 ./internal/tensor/ \
		| $(GO) run ./cmd/scgnn-benchjson -o BENCH_dense.json -key after

# The million-node scale lane (ROADMAP "out-of-core scale"): the flat-vs-
# reference CSR constructor micro-benchmarks at the 100k preset land under
# "csr-construct" (both variants in one run: the Reference row is the seed
# constructor, the acceptance bar is ≥2× lower B/op for the flat row), and
# the full-pipeline rows — generation, plan, 1%-perturbation replan,
# worker-cluster rounds/sec, peak runtime footprint at 10k/100k/1M — land
# under "scale", now with per-phase heap high-waters (gen/plan/replan) from
# the continuous memWatch sampler.
bench-scale:
	$(GO) test -run '^$$' -bench 'BenchmarkCSRConstruct' -benchmem ./internal/graph/ \
		| $(GO) run ./cmd/scgnn-benchjson -o BENCH_scale.json -key csr-construct
	$(GO) run ./cmd/scgnn-bench -scale all \
		| $(GO) run ./cmd/scgnn-benchjson -o BENCH_scale.json -key scale

# CPU + heap profiles of the scale pipeline at the 100k preset, for digging
# into what a BENCH_scale.json regression actually spends its time/bytes on.
# PROFILE_PRESET=reddit-sim-1m for the full-size run; PROFILE_FLAGS passes
# further scgnn-bench flags. Inspect with `go tool pprof`.
PROFILE_PRESET ?= reddit-sim-100k
PROFILE_FLAGS ?=
profile:
	mkdir -p results
	$(GO) run ./cmd/scgnn-bench -scale $(PROFILE_PRESET) $(PROFILE_FLAGS) \
		-cpuprofile results/scale_cpu.pprof -memprofile results/scale_mem.pprof
	@echo "profile: go tool pprof results/scale_cpu.pprof   # CPU"
	@echo "profile: go tool pprof results/scale_mem.pprof   # live heap"

# Every benchmark in the repo (paper figures included; slower).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every paper table/figure plus the ablations (minutes).
experiments:
	$(GO) run ./cmd/scgnn-bench -exp all -csv results/csv | tee results/full_results.txt

# Fast smoke of the full experiment matrix (seconds).
quick-experiments:
	$(GO) run ./cmd/scgnn-bench -exp all -quick

clean:
	rm -rf results/csv
