// Destination-taking ("Into") variants of the hot forward kernels.
//
// These exist for the inference fast path: paired with a Pool they let
// a forward pass at steady state allocate nothing. Every Into kernel
// computes its elements with exactly the same expressions, in exactly
// the same order, as the corresponding allocating kernel (or the
// forward half of the corresponding ag op), so at float64 outputs are
// bitwise identical — the invariant the no-grad equivalence tests
// assert with eps = 0.
//
// Each kernel is written once over the element type E. gc has no
// float32 transcendentals, so exp/log/tanh/sqrt run through the
// float64 math package with one rounding to E on the way out (a no-op
// at float64). Reductions (softmax partition, layer-norm moments)
// accumulate in E: the float32 tier is honest about its precision, and
// the cross-tier error is what the calibration harness budgets for.
//
// Unless noted otherwise, out must have the correct shape already
// (Pool.Get hands it out that way) and must not alias an input.
package tensor

import (
	"fmt"
	"math"

	"mtmlf/internal/parallel"
)

// AddInto computes out = a + b elementwise. out may alias a or b.
func AddInto[E Float](a, b, out *Dense[E]) {
	if !a.SameShape(b) || !a.SameShape(out) {
		panic(fmt.Sprintf("tensor: AddInto shape mismatch %v + %v -> %v", a.Shape, b.Shape, out.Shape))
	}
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
}

// ScaleInto computes out = s * a. out may alias a.
func ScaleInto[E Float](a *Dense[E], s E, out *Dense[E]) {
	if !a.SameShape(out) {
		panic(fmt.Sprintf("tensor: ScaleInto shape mismatch %v -> %v", a.Shape, out.Shape))
	}
	for i := range a.Data {
		out.Data[i] = a.Data[i] * s
	}
}

// AddBiasInto broadcasts the 1xN bias row across every row of a [M,N]
// matrix: out = a + 1·bias. out may alias a. The row-major loop is the
// same as ag.AddBias's forward.
func AddBiasInto[E Float](a, bias, out *Dense[E]) {
	m, n := a.Rows(), a.Cols()
	if bias.Rows() != 1 || bias.Cols() != n || !a.SameShape(out) {
		panic(fmt.Sprintf("tensor: AddBiasInto shape %v + %v -> %v", a.Shape, bias.Shape, out.Shape))
	}
	for i := 0; i < m; i++ {
		row := a.Row(i)
		orow := out.Row(i)
		for j := range row {
			orow[j] = row[j] + bias.Data[j]
		}
	}
}

// SoftmaxRowsInto applies the row-wise softmax of SoftmaxRows into
// out. out may alias a.
func SoftmaxRowsInto[E Float](a, out *Dense[E]) {
	a.mustMatrix()
	if !a.SameShape(out) {
		panic(fmt.Sprintf("tensor: SoftmaxRowsInto shape mismatch %v -> %v", a.Shape, out.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		orow := out.Data[i*n : (i+1)*n]
		mx := E(math.Inf(-1))
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		var z E
		for j, v := range row {
			e := E(math.Exp(float64(v - mx)))
			orow[j] = e
			z += e
		}
		if z == 0 {
			z = 1
		}
		for j := range orow {
			orow[j] /= z
		}
	}
}

// LogSoftmaxRowsInto applies the numerically stable row-wise
// log-softmax (same arithmetic as ag.LogSoftmaxRows's forward). out
// may alias a.
func LogSoftmaxRowsInto[E Float](a, out *Dense[E]) {
	a.mustMatrix()
	if !a.SameShape(out) {
		panic(fmt.Sprintf("tensor: LogSoftmaxRowsInto shape mismatch %v -> %v", a.Shape, out.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		mx := E(math.Inf(-1))
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		var z E
		for _, v := range row {
			z += E(math.Exp(float64(v - mx)))
		}
		lz := E(math.Log(float64(z))) + mx
		orow := out.Data[i*n : (i+1)*n]
		for j, v := range row {
			orow[j] = v - lz
		}
	}
}

// LayerNormRowsInto normalizes each row of a to zero mean / unit
// variance and applies the 1xN gain gamma and bias beta, with the
// exact expressions of ag.LayerNormRows's forward. out may alias a.
func LayerNormRowsInto[E Float](a, gamma, beta *Dense[E], eps float64, out *Dense[E]) {
	m, n := a.Rows(), a.Cols()
	if gamma.Cols() != n || beta.Cols() != n || !a.SameShape(out) {
		panic("tensor: LayerNormRowsInto shape mismatch")
	}
	for i := 0; i < m; i++ {
		row := a.Row(i)
		var mean E
		for _, v := range row {
			mean += v
		}
		mean /= E(n)
		var va E
		for _, v := range row {
			d := v - mean
			va += d * d
		}
		va /= E(n)
		is := E(1 / math.Sqrt(float64(va)+eps))
		orow := out.Row(i)
		for j, v := range row {
			xh := (v - mean) * is
			orow[j] = xh*gamma.Data[j] + beta.Data[j]
		}
	}
}

// ReLUInto computes out = max(0, a) elementwise. out may alias a.
func ReLUInto[E Float](a, out *Dense[E]) {
	if !a.SameShape(out) {
		panic("tensor: ReLUInto shape mismatch")
	}
	for i, x := range a.Data {
		if x > 0 {
			out.Data[i] = x
		} else {
			out.Data[i] = 0
		}
	}
}

// GELUInto computes the tanh-approximation GELU elementwise with the
// same expression as ag.GELU. out may alias a.
func GELUInto[E Float](a, out *Dense[E]) {
	if !a.SameShape(out) {
		panic("tensor: GELUInto shape mismatch")
	}
	const c = 0.7978845608028654 // sqrt(2/pi)
	for i, x := range a.Data {
		x := float64(x)
		out.Data[i] = E(0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x))))
	}
}

// TanhInto computes out = tanh(a) elementwise. out may alias a.
func TanhInto[E Float](a, out *Dense[E]) {
	if !a.SameShape(out) {
		panic("tensor: TanhInto shape mismatch")
	}
	for i, x := range a.Data {
		out.Data[i] = E(math.Tanh(float64(x)))
	}
}

// SigmoidInto computes the logistic function elementwise (same
// expression as ag.Sigmoid). out may alias a.
func SigmoidInto[E Float](a, out *Dense[E]) {
	if !a.SameShape(out) {
		panic("tensor: SigmoidInto shape mismatch")
	}
	for i, x := range a.Data {
		out.Data[i] = E(1 / (1 + math.Exp(-float64(x))))
	}
}

// MatMulInto computes out = a @ b. out must be [m,n] and zeroed (the
// kernel accumulates); Pool.Get satisfies both. out must not alias a
// or b.
func MatMulInto[E Float](a, b, out *Dense[E]) {
	a.mustMatrix()
	b.mustMatrix()
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 || out.Shape[0] != m || out.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto %v @ %v -> %v", a.Shape, b.Shape, out.Shape))
	}
	matMulInto(a, b, out)
}

// MatMulTransBInto computes out = a @ b^T for a [m,k], b [n,k]. out
// must be [m,n] and must not alias the inputs (zeroing is not needed:
// this kernel overwrites).
func MatMulTransBInto[E Float](a, b, out *Dense[E]) {
	a.mustMatrix()
	b.mustMatrix()
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 || out.Shape[0] != m || out.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBInto %v @ %v^T -> %v", a.Shape, b.Shape, out.Shape))
	}
	matMulTransBInto(a, b, out)
}

// MatMulBatchInto computes outs[i] = as[i] @ bs[i] for every triple on
// the worker pool; the pooled-destination form of MatMulBatch. Each
// outs[i] must be zeroed (the kernel accumulates).
func MatMulBatchInto[E Float](as, bs, outs []*Dense[E]) {
	if len(as) != len(bs) || len(as) != len(outs) {
		panic(fmt.Sprintf("tensor: MatMulBatchInto length mismatch %d/%d/%d", len(as), len(bs), len(outs)))
	}
	parallel.For(len(as), 1, func(s, e int) {
		for i := s; i < e; i++ {
			MatMulInto(as[i], bs[i], outs[i])
		}
	})
}

// MatMulTransBBatchInto computes outs[i] = as[i] @ bs[i]^T for every
// triple on the worker pool; see MatMulBatchInto.
func MatMulTransBBatchInto[E Float](as, bs, outs []*Dense[E]) {
	if len(as) != len(bs) || len(as) != len(outs) {
		panic(fmt.Sprintf("tensor: MatMulTransBBatchInto length mismatch %d/%d/%d", len(as), len(bs), len(outs)))
	}
	parallel.For(len(as), 1, func(s, e int) {
		for i := s; i < e; i++ {
			MatMulTransBInto(as[i], bs[i], outs[i])
		}
	})
}
