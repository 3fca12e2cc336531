package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"scgnn/internal/dist"
	"scgnn/internal/tensor"
)

// TestMain lets the test binary stand in for the bench binary: the driver
// code re-execs os.Executable() for every repetition, and a child marked
// with childEnv runs the command instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the shape the driver's contract gives BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	bm := new(benchmarkFile)
	if err := dec.Decode(bm); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bm
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNamesMatchBenchmarkFile holds the Go tables and BENCHMARK.json equal:
// the driver reads the file, the benchmark prints from the tables.
func TestNamesMatchBenchmarkFile(t *testing.T) {
	bm := loadBenchmarkFile(t)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.name)
		if got := bm.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: file has %q (%q), spec.go %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(bm.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, metrics.go %d", len(bm.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, d := range endToEnd {
		name(d.name)
		got := bm.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end %d: file has %+v, metrics.go %+v", i, got, d)
		}
		// The driver caps a bound at 0.25 and wants setup_s to have the
		// widest.
		if d.name == "setup_s" {
			setup = d.unit == "s" && d.better == "lower" && d.bound <= 0.25
		} else if d.bound <= 0 || d.bound > endToEnd[0].bound {
			t.Errorf("%s: bound %v outside (0, setup_s's %v]", d.name, d.bound, endToEnd[0].bound)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, metrics.go %d", len(bm.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		name(d.name)
		if got := bm.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: file has %+v, metrics.go %+v", i, got, d)
		}
	}
}

// TestQuickSet runs all six workloads and the traced pass on the quick spec
// and checks that every metric is emitted under its declared name and that
// no operation failed.
func TestQuickSet(t *testing.T) {
	dir := t.TempDir()
	o := &options{seed: 1, quick: true, trace: true, reps: 2, out: dir}
	sums, err := fullSet(io.Discard, quickWorkloads(), o)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.name] = true
	}
	for _, s := range sums {
		if s.failed > 0 || s.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", s.w.name, s.failed, s.attempted, s.failures)
		}
		if s.reps != o.reps {
			t.Errorf("%s: %d repetitions, want %d", s.w.name, s.reps, o.reps)
		}
		for _, d := range endToEnd {
			if v, ok := s.values[d.name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", s.w.name, d.name, v)
			}
		}
		if len(s.values) != len(endToEnd)+len(demoted) {
			t.Errorf("%s: %d untraced values, %d declared", s.w.name, len(s.values), len(endToEnd)+len(demoted))
		}
		for name := range s.layers {
			if !declared[name] {
				t.Errorf("%s: traced pass emitted undeclared metric %q", s.w.name, name)
			}
		}
		for _, must := range []string{"gnn.agg_share", "gnn.dense_share", "tensor.matmul_ms", "wire.encode_ns_per_val.q8", "gnn.epoch_ms_1p"} {
			if s.layers[must] <= 0 {
				t.Errorf("%s: per-layer metric %s = %v, want > 0", s.w.name, must, s.layers[must])
			}
		}
	}
	buf, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &trace); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	epochs := 0
	for _, e := range trace.TraceEvents {
		if e.Name == "epoch" {
			epochs++
		}
	}
	if want := 4 * len(sums); epochs != want {
		t.Errorf("trace.json holds %d epoch spans, want %d", epochs, want)
	}
}

// TestDriverResultLine runs the driver's command line and checks the last
// line of output against the contract, traced and untraced.
func TestDriverResultLine(t *testing.T) {
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out bytes.Buffer
		args := []string{"-quick", "-out", t.TempDir(), "--workload", "cluster-q8-10k", "--seed", "2", "--seconds", "0.2", "--trace", tc.trace}
		if code := run(args, &out); code != 0 {
			t.Fatalf("trace %s: exit code %d\n%s", tc.trace, code, out.String())
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var res map[string]json.RawMessage
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", tc.trace, err)
		}
		if len(res) != 4 {
			t.Errorf("trace %s: result has %d keys, want correct, attempted, failed, metrics", tc.trace, len(res))
		}
		var metrics map[string]struct {
			Value *float64
			Unit  string
		}
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(tc.defs) {
			t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			if m, ok := metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s missing or wrong unit: %+v", tc.trace, d.name, m)
			}
		}
		if string(res["correct"]) != "true" || string(res["failed"]) != "0" {
			t.Errorf("trace %s: correct=%s failed=%s\n%s", tc.trace, res["correct"], res["failed"], out.String())
		}
	}
	if code := run([]string{"--workload", "no-such-workload"}, io.Discard); code == 0 {
		t.Error("unknown workload exited 0")
	}
}

// TestSelfTimes checks the self-time arithmetic on a synthetic span tree:
//
//	root 0–100
//	  a 10–40
//	    a1 15–25
//	  b 50–90
func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "a", Start: 10 * ms, End: 40 * ms, Parent: 0},
		{Name: "a1", Start: 15 * ms, End: 25 * ms, Parent: 1},
		{Name: "b", Start: 50 * ms, End: 90 * ms, Parent: 0},
	}
	want := []time.Duration{30 * ms, 20 * ms, 10 * ms, 40 * ms}
	var total time.Duration
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got, want[i])
		}
		total += got
	}
	if total != 100*ms {
		t.Errorf("self times sum to %v, want the root's 100ms", total)
	}

	// The same tree recorded live nests the same way.
	tr := newTracer("rep")
	root := tr.begin("root")
	tr.in("a", func() { tr.in("a1", func() {}) })
	tr.in("b", func() {})
	tr.end(root)
	parents := []int{-1, 0, 1, 0}
	for i, s := range tr.spans {
		if s.Parent != parents[i] || s.Rep != "rep" || s.End < s.Start {
			t.Errorf("recorded span %d = %+v, want parent %d", i, s, parents[i])
		}
	}
}

// TestCountingConns checks the byte counters against what the runtime
// itself accounts: mesh socket bytes are the fabric's bytes plus the stated
// framing, and hub bytes are 2·N·cols·8 per round plus a constant.
func TestCountingConns(t *testing.T) {
	const n = nparts
	ds := generate(shape{"tiny", 300, 10, 3, 0.8}, 1)
	part := blockPartition(ds.NumNodes())
	f, err := startFleet(filepath.Join(t.TempDir(), "f"), n)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	if err := f.coord.Setup(ds.Graph, part, dist.Vanilla()); err != nil {
		t.Fatal(err)
	}
	if got, want := f.mesh.total(), int64(meshHelloBytes*n*(n-1)/2); got != want {
		t.Errorf("mesh carried %d B after assembly, want %d (one Hello per connection)", got, want)
	}

	const rounds = 4
	overhead := map[int]int64{}
	for _, cols := range []int{8, 24} {
		h := tensor.New(ds.NumNodes(), cols)
		for i := range h.Data {
			h.Data[i] = float64(i % 7)
		}
		f.coord.StartEpoch(0) // resets the fabric
		hub0, mesh0 := f.hub.total(), f.mesh.total()
		for r := 0; r < rounds; r++ {
			if _, err := f.coord.Round(h, r%2 == 1); err != nil {
				t.Fatal(err)
			}
		}
		fabric := f.coord.Fabric().TotalBytes()
		if fabric == 0 {
			t.Fatal("fabric counted no bytes")
		}
		want := fabric + int64(meshFrameOverhead*rounds*n*(n-1))
		if got := f.mesh.total() - mesh0; got != want {
			t.Errorf("cols %d: mesh sockets carried %d B, want fabric %d + framing = %d", cols, got, fabric, want)
		}
		payload := int64(2 * ds.NumNodes() * cols * 8 * rounds)
		overhead[cols] = f.hub.total() - hub0 - payload
	}
	if overhead[8] != overhead[24] {
		t.Errorf("hub bytes beyond 2·N·cols·8 per round depend on cols: %d at 8, %d at 24", overhead[8], overhead[24])
	}
	if per := overhead[8] / (rounds * n); per <= 0 || per > 256 {
		t.Errorf("hub framing is %d B per node per round, want a small positive constant", per)
	}
}
