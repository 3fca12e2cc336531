package exp

import "testing"

func TestAblReplanShape(t *testing.T) {
	r := quick(t, "abl-replan")
	tb := r.Tables[0]
	if len(tb.Rows) == 0 || len(tb.Rows)%3 != 0 { // 3 perturbations per dataset in quick mode
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for i, row := range tb.Rows {
		// Every step must verify byte-identical against from-scratch.
		if row[5] != "true" {
			t.Fatalf("row %d: incremental plans not identical to scratch: %v", i, row)
		}
		dirty := int(cell(t, row[2]))
		if i%3 == 0 && dirty != 0 {
			t.Fatalf("row %d: no-op perturbation dirtied %d pairs", i, dirty)
		}
		if i%3 != 0 && dirty == 0 {
			t.Fatalf("row %d: real perturbation dirtied nothing", i)
		}
	}
}
