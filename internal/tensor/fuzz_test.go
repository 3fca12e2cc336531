package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzBits hands out the fuzz input's bytes as float64 bit patterns, eight
// at a time, starting over at the front when they run out (and all zeros for
// an empty input), so every value a kernel reads is one the fuzzer chose.
type fuzzBits struct {
	b  []byte
	at int
}

func (f *fuzzBits) next() float64 {
	if len(f.b) == 0 {
		return 0
	}
	var w [8]byte
	for i := range w {
		w[i] = f.b[f.at%len(f.b)]
		f.at++
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
}

// FuzzTensorKernels turns bytes into a width, a CSR row list and float bits,
// and requires every vector body to agree with its Go loop on them: the
// register-resident gather (GatherCSR in every weighting, and GatherAXPY at
// the same widths), both ReLU mask passes and the column sum; the Go path of
// GatherCSR must also equal the sequential AXPY loop. A NaN must come out exactly where
// the Go loop puts one; which payload it carries after two NaNs met is the
// one thing left unpinned (see matmul.go). The seed corpus is under
// testdata/fuzz/FuzzTensorKernels.
func FuzzTensorKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if !useSIMD {
			t.Skip("no SIMD kernels on this host")
		}
		defer func() { useSIMD = true }()
		if len(data) < 3 {
			return
		}
		// Header: width 1…40 (the vector gather takes multiples of 4 up to
		// 32), 1…16 matrix rows, 0…7 output rows and the weighting (bit 3:
		// Receiver, else bit 4: PerTerm, else Symmetric); then one byte per
		// output row (destination and term count) and one per term (source
		// row).
		c, nm, nout := 1+int(data[0])%40, 1+int(data[1])%16, int(data[2])%8
		how := Symmetric
		if data[2]&8 != 0 {
			how = Receiver
		} else if data[2]&16 != 0 {
			how = PerTerm
		}
		data = data[3:]
		pick := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		rows, off := make([]int32, nout), []int32{0}
		var nbr []int32
		for i := range rows {
			v := pick()
			rows[i] = int32(v % nm)
			for k := v / nm % 6; k > 0; k-- { // 0…5 terms, empty rows included
				nbr = append(nbr, int32(pick()%nm))
			}
			off = append(off, int32(len(nbr)))
		}
		// Terms past the last row's: the prefetch may look at them.
		for k := pick() % 4; k > 0; k-- {
			nbr = append(nbr, int32(pick()%nm))
		}
		bits := fuzzBits{b: data}
		m, base := New(nm, c), New(nm, c)
		for _, mat := range []*Matrix{m, base} {
			for i := range mat.Data {
				mat.Data[i] = bits.next()
			}
		}
		w := make([]float64, len(nbr))
		for i := range w {
			w[i] = bits.next()
		}
		coeff := make([]float64, nm)
		for i := range coeff {
			coeff[i] = bits.next()
		}
		scale := bits.next()
		csrW := coeff
		if how == PerTerm {
			csrW = w
		}

		run := func(vec bool) (csr *Matrix, y, relu, gate, sums []float64, mask []uint64) {
			useSIMD = vec
			csr = base.Clone()
			GatherCSR(csr, m, rows, off, nbr, csrW, how)
			y = append([]float64(nil), base.Row(0)...)
			GatherAXPY(y, m, nbr, w, scale)
			r := m.Clone()
			mask = make([]uint64, (len(r.Data)+63)/64)
			r.ReLUInPlace(mask)
			g := base.Clone()
			GatePositiveInPlace(g, mask)
			sums = append([]float64(nil), base.Row(nm-1)...)
			m.ColSumsInto(sums)
			return csr, y, r.Data, g.Data, sums, mask
		}
		csrG, yG, reluG, gateG, sumsG, maskG := run(false)
		csrS, yS, reluS, gateS, sumsS, maskS := run(true)
		want := base.Clone()
		axpyGatherCSR(want, m, rows, off, nbr, csrW, how)
		if !bitsEqualOrNaN(csrG.Data, want.Data) {
			t.Fatalf("GatherCSR weighting %d c=%d rows=%v off=%v nbr=%v: Go loop differs from sequential AXPY", how, c, rows, off, nbr)
		}
		if !bitsEqualOrNaN(csrS.Data, csrG.Data) {
			t.Fatalf("GatherCSR weighting %d c=%d rows=%v off=%v nbr=%v: vector body differs from the Go loop", how, c, rows, off, nbr)
		}
		if !bitsEqualOrNaN(yS, yG) {
			t.Fatalf("GatherAXPY c=%d nbr=%v: vector body differs from the Go loop", c, nbr)
		}
		if !bitsEqual(reluS, reluG) || !bitsEqual(gateS, gateG) {
			t.Fatalf("ReLU passes %dx%d: vector body differs from the Go loop", nm, c)
		}
		for i := range maskS {
			if maskS[i] != maskG[i] {
				t.Fatalf("ReLU mask word %d: %#x, Go loop %#x", i, maskS[i], maskG[i])
			}
		}
		if !bitsEqualOrNaN(sumsS, sumsG) {
			t.Fatalf("ColSumsInto %dx%d: vector body differs from the Go loop", nm, c)
		}
	})
}
