package tensor

import (
	"fmt"
	"math"
)

// The row-parallel passes of a dense epoch besides the products: each
// writes disjoint rows (or elements) with arithmetic that does not depend
// on where the range was cut, so results are the same for any worker count.
// Reductions whose order can be observed — the loss sum, ColSumsInto —
// are not here: they stay serial.

// ArgmaxRowsInto writes the column index of each row's max element into
// dst, reusing its storage when it has room for m.Rows entries, and
// returns it. Ties go to the lowest index; a row with no element above
// −Inf (all NaN, say) reports 0.
func ArgmaxRowsInto(dst []int, m *Matrix) []int {
	if cap(dst) < m.Rows {
		dst = make([]int, m.Rows)
	}
	dst = dst[:m.Rows]
	type args struct {
		dst []int
		m   *Matrix
	}
	parallelRows(m.Rows, len(m.Data), args{dst, m}, func(g args, lo, hi int) {
		for i := lo; i < hi; i++ {
			best, bi := math.Inf(-1), 0
			for j, v := range g.m.Row(i) {
				if v > best {
					best, bi = v, j
				}
			}
			g.dst[i] = bi
		}
	})
	return dst
}

// positiveMask is all ones when the float64 with bits b is greater than
// zero and zero otherwise (negatives, ±0, NaN). The two ReLU passes run on
// activations whose sign is a coin flip, where a compare-and-branch
// mispredicts every other element; the mask keeps them branch-free.
func positiveMask(b uint64) uint64 {
	const inf = 0x7FF0000000000000
	// Top bit set exactly when: sign clear, not above +Inf, not zero.
	return uint64(int64(^b&^(inf-b)&-b) >> 63)
}

// ReLUInPlace replaces every element that is not greater than zero
// (negatives, −0, NaN) with +0.
func (m *Matrix) ReLUInPlace() {
	parallelRows(len(m.Data), len(m.Data), m.Data, func(d []float64, lo, hi int) {
		d = d[lo:hi]
		for i, v := range d {
			b := math.Float64bits(v)
			d[i] = math.Float64frombits(b & positiveMask(b))
		}
	})
}

// GatePositiveInPlace zeroes (to +0) every element of d whose counterpart
// in ref is not greater than zero and leaves the others untouched — the
// ReLU backward pass, gated by the rectified output itself.
func GatePositiveInPlace(d, ref *Matrix) {
	shapeCheck(d.Rows == ref.Rows && d.Cols == ref.Cols, "GatePositiveInPlace", d, ref)
	type args struct{ d, ref []float64 }
	parallelRows(len(d.Data), len(d.Data), args{d.Data, ref.Data}, func(g args, lo, hi int) {
		d := g.d[lo:hi]
		for i, r := range g.ref[lo:hi] {
			d[i] = math.Float64frombits(math.Float64bits(d[i]) & positiveMask(math.Float64bits(r)))
		}
	})
}

// xentExpCost weighs one logit of SoftmaxCrossEntropyRows for the
// parallelRows threshold: two math.Exp calls dwarf a multiply-add.
const xentExpCost = 32

// SoftmaxCrossEntropyRows is the per-row half of a masked mean softmax
// cross-entropy. For every row i with mask[i] set it stores the row's
// log-softmax at column labels[i] in picked[i] and writes the loss
// gradient exp(log-softmax)·scale − scale·onehot(labels[i]) to grad's row;
// rows with mask[i] clear get a zero gradient row and picked[i] is left
// alone. The caller sums picked serially (the order of that sum is
// observable) and passes scale = 1/count. labels of masked rows must be
// valid columns.
func SoftmaxCrossEntropyRows(grad, logits *Matrix, labels []int, mask []bool, scale float64, picked []float64) {
	shapeCheck(grad.Rows == logits.Rows && grad.Cols == logits.Cols, "SoftmaxCrossEntropyRows", grad, logits)
	if len(labels) != logits.Rows || len(mask) != logits.Rows || len(picked) != logits.Rows {
		panic(fmt.Sprintf("tensor: SoftmaxCrossEntropyRows rows %d, labels %d, mask %d, picked %d",
			logits.Rows, len(labels), len(mask), len(picked)))
	}
	type args struct {
		grad, logits *Matrix
		labels       []int
		mask         []bool
		scale        float64
		picked       []float64
	}
	g := args{grad, logits, labels, mask, scale, picked}
	parallelRows(logits.Rows, len(logits.Data)*xentExpCost, g, func(g args, lo, hi int) {
		for i := lo; i < hi; i++ {
			grow := g.grad.Row(i)
			if !g.mask[i] {
				for j := range grow {
					grow[j] = 0
				}
				continue
			}
			logSoftmaxRow(grow, g.logits.Row(i))
			g.picked[i] = grow[g.labels[i]]
			for j, l := range grow {
				grow[j] = math.Exp(l) * g.scale
			}
			grow[g.labels[i]] -= g.scale
		}
	})
}
