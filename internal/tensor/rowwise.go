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
// (negatives, −0, NaN) with +0, and records in positive, one bit an element
// (bit i%64 of word i/64, ⌈len/64⌉ words), which elements stayed.
func (m *Matrix) ReLUInPlace(positive []uint64) { maskPass(m, positive, true) }

// GatePositiveInPlace zeroes (to +0) every element of d whose bit in
// positive is clear and leaves the others untouched — the ReLU backward
// pass, gated by the mask ReLUInPlace recorded.
func GatePositiveInPlace(d *Matrix, positive []uint64) { maskPass(d, positive, false) }

// maskPass is both ReLU passes, split by mask word so that workers write
// disjoint words: record sets the bits from the elements, else the bits
// gate them.
func maskPass(m *Matrix, positive []uint64, record bool) {
	if len(positive) != (len(m.Data)+63)/64 {
		panic(fmt.Sprintf("tensor: ReLU mask of %d words over %d elements", len(positive), len(m.Data)))
	}
	type args struct {
		d      []float64
		p      []uint64
		record bool
	}
	parallelRows(len(positive), len(m.Data), args{m.Data, positive, record}, func(g args, lo, hi int) {
		for w := lo; w < hi; w++ {
			d, bits := g.d[64*w:min(64*w+64, len(g.d))], g.p[w]
			for i, v := range d {
				b := math.Float64bits(v)
				keep := -(bits >> i & 1)
				if g.record {
					keep = positiveMask(b)
					bits = bits&^(1<<i) | keep&1<<i
				}
				d[i] = math.Float64frombits(b & keep)
			}
			g.p[w] = bits
		}
	})
}

// xentExpCost weighs one logit of SoftmaxCrossEntropyRows for the
// parallelRows threshold: its math.Exp call dwarfs a multiply-add.
const xentExpCost = 16

// SoftmaxCrossEntropyRows is the per-row half of a masked mean softmax
// cross-entropy, written over the logits. For every row i with mask[i] set
// it stores the row's log-softmax at column labels[i], l − max − log(sum),
// in picked[i] and overwrites the row with the loss gradient
// softmax·scale − scale·onehot(labels[i]), the softmax being exp(l − max)/sum
// from the one exp a logit takes; rows with mask[i] clear become zero and
// picked[i] is left alone. The caller sums picked serially (the order of
// that sum is observable) and passes scale = 1/count. labels of masked rows
// must be valid columns.
func SoftmaxCrossEntropyRows(logits *Matrix, labels []int, mask []bool, scale float64, picked []float64) {
	if len(labels) != logits.Rows || len(mask) != logits.Rows || len(picked) != logits.Rows {
		panic(fmt.Sprintf("tensor: SoftmaxCrossEntropyRows rows %d, labels %d, mask %d, picked %d",
			logits.Rows, len(labels), len(mask), len(picked)))
	}
	type args struct {
		logits *Matrix
		labels []int
		mask   []bool
		scale  float64
		picked []float64
	}
	g := args{logits, labels, mask, scale, picked}
	parallelRows(logits.Rows, len(logits.Data)*xentExpCost, g, func(g args, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := g.logits.Row(i)
			if !g.mask[i] {
				for j := range row {
					row[j] = 0
				}
				continue
			}
			label := g.labels[i]
			at := row[label]
			mx, sum := expRow(row, row)
			g.picked[i] = at - mx - math.Log(sum)
			inv := g.scale / sum
			for j := range row {
				row[j] *= inv
			}
			row[label] -= g.scale
		}
	})
}
