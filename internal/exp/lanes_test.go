package exp

import (
	"reflect"
	"testing"

	"scgnn/internal/exchange"
)

// TestLanesCoverMethodMatrix locks the lane registry to exchange.MethodMatrix:
// every matrix combination must be present under its matrix name with an
// identical configuration, so a combo added to the matrix without a lane (or
// a lane that silently drifts from the matrix) fails here.
func TestLanesCoverMethodMatrix(t *testing.T) {
	const seed = 7
	lanes := Lanes(seed)
	matrix := exchange.MethodMatrix(seed)
	for name, want := range matrix {
		got, ok := lanes[name]
		if !ok {
			t.Errorf("matrix combo %q missing from lane registry", name)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("lane %q drifted from the matrix: %+v vs %+v", name, got, want)
		}
	}
	if len(lanes) <= len(matrix) {
		t.Fatalf("registry carries no extra lanes: %d vs matrix %d", len(lanes), len(matrix))
	}
	if got := matrixLaneNames(seed); len(got) != len(matrix) {
		t.Fatalf("matrixLaneNames returned %d names for %d combos", len(got), len(matrix))
	}
}

// TestLaneListOrderAndUnknown checks laneList preserves the requested order
// and panics on a name the registry does not carry.
func TestLaneListOrderAndUnknown(t *testing.T) {
	cfgs := laneList(3, "quant8", "vanilla")
	if cfgs[0].QuantBits != 8 || cfgs[1].QuantBits != 0 {
		t.Fatalf("laneList order wrong: %+v", cfgs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown lane did not panic")
		}
	}()
	laneList(3, "no-such-lane")
}

// TestAblSchedShape runs the scheduler ablation in Quick mode and checks the
// recorded acceptance evidence: the scheduled run's accuracy holds up against
// the best fixed combination while total bytes drop by at least a quarter.
func TestAblSchedShape(t *testing.T) {
	r := quick(t, "abl-sched")
	tb := r.Tables[0]
	// One row per matrix combo plus the sched row.
	if want := len(matrixLaneNames(1)) + 1; len(tb.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), want)
	}
	type run struct{ mb, acc float64 }
	var fixed []run
	var sched run
	seen := false
	for _, row := range tb.Rows {
		r := run{cell(t, row[2]), cell(t, row[3])}
		if len(row[1]) >= 6 && row[1][:6] == "sched(" {
			sched, seen = r, true
			continue
		}
		fixed = append(fixed, r)
	}
	if !seen {
		t.Fatal("no scheduled row in the table")
	}
	// Recompute the lane's own selection: iso-cheapest fixed combo.
	var maxAcc float64
	for _, f := range fixed {
		if f.acc > maxAcc {
			maxAcc = f.acc
		}
	}
	best := run{mb: -1}
	for _, f := range fixed {
		if f.acc >= maxAcc-isoTol(maxAcc) && (best.mb < 0 || f.mb < best.mb) {
			best = f
		}
	}
	// The acceptance evidence: ≥25% fewer total bytes at iso accuracy.
	if sched.mb > 0.75*best.mb {
		t.Fatalf("scheduled run total %.4f MB not ≥25%% below best fixed %.4f MB", sched.mb, best.mb)
	}
	if sched.acc < best.acc-isoTol(best.acc) {
		t.Fatalf("scheduled accuracy %.4f not iso with best fixed %.4f", sched.acc, best.acc)
	}
	if len(r.Notes) == 0 {
		t.Fatal("no acceptance notes recorded")
	}
}
