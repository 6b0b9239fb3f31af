// Package tensor provides dense row-major matrices and the raw numeric
// kernels used by the autodiff engine in internal/ag. It is the lowest
// layer of the deep-learning substrate that substitutes for PyTorch in
// this reproduction (see DESIGN.md, substitution table).
//
// Dense[E] is generic over the element type E (float32 or float64).
// Tensor is Dense[float64], the type training, gradients and
// checkpoints use end to end; F32 is Dense[float32], the activation
// type of the reduced-precision serving tiers. The no-grad kernels
// (the Into family in inplace.go, the pooled arena in pool.go) are
// written once over E. float32 and float64 have different GC shapes,
// so gc compiles one body per element type and no arithmetic is
// dispatched through a dictionary. Only the matmul row bodies branch
// on E (matmul.go explains why); the int8 kernel (quant.go) takes
// float32 activations only.
//
// Tensors are row-major. Almost all of the model code works with rank-2
// tensors (matrices); vectors are represented as 1xN matrices.
//
// The matrix-multiply kernels live in matmul.go: they are
// cache-blocked and shard large products by output row across the
// package worker pool (see SetParallelism), while producing bitwise
// identical results at every parallelism level.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"unsafe"
)

// Float is the element-type constraint of Dense: the two precisions
// the substrate computes in.
type Float interface {
	float32 | float64
}

// Dense is a dense row-major tensor of E. The zero value is not
// usable; construct tensors with New, NewDense, FromSlice, Rand, As,
// or a Pool.
type Dense[E Float] struct {
	// Data holds the elements in row-major order.
	Data []E
	// Shape holds the extent of each dimension.
	Shape []int
}

// Tensor is the float64 tensor of training, gradients and the
// reference serving tier.
type Tensor = Dense[float64]

// F32 is the float32 tensor of the reduced-precision serving tiers.
type F32 = Dense[float32]

// NewDense creates a zero-initialized tensor of E with the given shape.
func NewDense[E Float](shape ...int) *Dense[E] {
	n := 1
	for _, s := range shape {
		if s < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d", s))
		}
		n *= s
	}
	sh := make([]int, len(shape))
	copy(sh, shape)
	return &Dense[E]{Data: make([]E, n), Shape: sh}
}

// As returns t with element type E: t itself when E is float64 (no
// copy — a float64 view shares the trained weights), otherwise a copy
// rounded to nearest, ties to even.
func As[E Float](t *Tensor) *Dense[E] {
	if same, ok := any(t).(*Dense[E]); ok {
		return same
	}
	out := NewDense[E](t.Shape...)
	for i, v := range t.Data {
		out.Data[i] = E(v)
	}
	return out
}

// ToTensor returns t as float64: t itself when E is float64 (no copy),
// otherwise a widened copy (exact: every float32 is a float64).
func (t *Dense[E]) ToTensor() *Tensor {
	if same, ok := any(t).(*Tensor); ok {
		return same
	}
	out := New(t.Shape...)
	for i, v := range t.Data {
		out.Data[i] = float64(v)
	}
	return out
}

// New creates a zero-initialized float64 tensor with the given shape.
func New(shape ...int) *Tensor { return NewDense[float64](shape...) }

// Zeros is an alias of New, provided for readability at call sites.
func Zeros(shape ...int) *Tensor { return New(shape...) }

// Full creates a tensor filled with value v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// FromSlice creates a rows x cols matrix from a flat row-major slice.
// The slice is copied.
func FromSlice(data []float64, rows, cols int) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice length %d != %d*%d", len(data), rows, cols))
	}
	t := New(rows, cols)
	copy(t.Data, data)
	return t
}

// FromRows creates a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Tensor {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	t := New(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic("tensor: FromRows ragged input")
		}
		copy(t.Data[i*c:(i+1)*c], r)
	}
	return t
}

// Vector creates a 1xN matrix from data (copied).
func Vector(data []float64) *Tensor { return FromSlice(append([]float64(nil), data...), 1, len(data)) }

// Rand creates a rows x cols matrix with entries drawn uniformly from
// [-scale, scale] using rng.
func Rand(rng *rand.Rand, rows, cols int, scale float64) *Tensor {
	t := New(rows, cols)
	for i := range t.Data {
		t.Data[i] = (rng.Float64()*2 - 1) * scale
	}
	return t
}

// RandNorm creates a rows x cols matrix with N(0, std) entries.
func RandNorm(rng *rand.Rand, rows, cols int, std float64) *Tensor {
	t := New(rows, cols)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// Xavier creates a rows x cols matrix with Glorot-uniform initialization.
func Xavier(rng *rand.Rand, rows, cols int) *Tensor {
	limit := math.Sqrt(6.0 / float64(rows+cols))
	return Rand(rng, rows, cols, limit)
}

// Rows returns the first dimension extent (panics if not a matrix).
func (t *Dense[E]) Rows() int { t.mustMatrix(); return t.Shape[0] }

// Cols returns the second dimension extent (panics if not a matrix).
func (t *Dense[E]) Cols() int { t.mustMatrix(); return t.Shape[1] }

// Size returns the total number of elements.
func (t *Dense[E]) Size() int { return len(t.Data) }

func (t *Dense[E]) mustMatrix() {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: expected matrix, got shape %v", t.Shape))
	}
}

// At returns element (i, j) of a matrix.
func (t *Dense[E]) At(i, j int) E {
	t.mustMatrix()
	return t.Data[i*t.Shape[1]+j]
}

// Set assigns element (i, j) of a matrix.
func (t *Dense[E]) Set(i, j int, v E) {
	t.mustMatrix()
	t.Data[i*t.Shape[1]+j] = v
}

// Row returns a view (not a copy) of row i of a matrix.
func (t *Dense[E]) Row(i int) []E {
	t.mustMatrix()
	c := t.Shape[1]
	return t.Data[i*c : (i+1)*c]
}

// Clone returns a deep copy.
func (t *Dense[E]) Clone() *Dense[E] {
	out := NewDense[E](t.Shape...)
	copy(out.Data, t.Data)
	return out
}

// SameShape reports whether t and o have identical shapes.
func (t *Dense[E]) SameShape(o *Dense[E]) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Fill sets every element to v.
func (t *Dense[E]) Fill(v E) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Dense[E]) Zero() { t.Fill(0) }

// AddInPlace accumulates o into t elementwise.
func (t *Dense[E]) AddInPlace(o *Dense[E]) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: AddInPlace shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// ScaleInPlace multiplies every element by s.
func (t *Dense[E]) ScaleInPlace(s E) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// Add returns t + o elementwise.
func Add(a, b *Tensor) *Tensor {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: Add shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: Sub shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// Mul returns the Hadamard (elementwise) product.
func Mul(a, b *Tensor) *Tensor {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: Mul shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// Scale returns s * a.
func Scale(a *Tensor, s float64) *Tensor {
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * s
	}
	return out
}

// Transpose returns the matrix transpose.
func Transpose(a *Tensor) *Tensor {
	a.mustMatrix()
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}

// SumAll returns the sum of all elements.
func SumAll(a *Tensor) float64 {
	var s float64
	for _, v := range a.Data {
		s += v
	}
	return s
}

// MaxAll returns the maximum element (−Inf for empty tensors).
func MaxAll(a *Tensor) float64 {
	m := math.Inf(-1)
	for _, v := range a.Data {
		if v > m {
			m = v
		}
	}
	return m
}

// SumRows returns a 1xN row containing the column sums of a matrix.
func SumRows(a *Tensor) *Tensor {
	a.mustMatrix()
	m, n := a.Shape[0], a.Shape[1]
	out := New(1, n)
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		for j, v := range row {
			out.Data[j] += v
		}
	}
	return out
}

// SoftmaxRows applies a numerically stable softmax independently to
// each row of a matrix.
func SoftmaxRows(a *Tensor) *Tensor {
	out := New(a.Shape...)
	SoftmaxRowsInto(a, out)
	return out
}

// Equal reports whether two tensors have identical shape and all
// elements within eps of each other (eps = 0 asserts bitwise
// equality, the within-tier contract).
func Equal[E Float](a, b *Dense[E], eps float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(float64(a.Data[i])-float64(b.Data[i])) > eps {
			return false
		}
	}
	return true
}

// String renders small tensors for debugging.
func (t *Dense[E]) String() string {
	if len(t.Shape) == 2 {
		var b strings.Builder
		fmt.Fprintf(&b, "Tensor[%dx%d]", t.Shape[0], t.Shape[1])
		if t.Size() <= 64 {
			b.WriteString("{")
			for i := 0; i < t.Shape[0]; i++ {
				if i > 0 {
					b.WriteString("; ")
				}
				for j := 0; j < t.Shape[1]; j++ {
					if j > 0 {
						b.WriteString(" ")
					}
					fmt.Fprintf(&b, "%.4g", t.At(i, j))
				}
			}
			b.WriteString("}")
		}
		return b.String()
	}
	return fmt.Sprintf("Tensor%v(%d elems)", t.Shape, t.Size())
}

// HasNaN reports whether any element is NaN or Inf. Training loops use
// this as a cheap sanity guard.
func (t *Dense[E]) HasNaN() bool {
	for _, v := range t.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return true
		}
	}
	return false
}

// Bytes returns the resident size of the tensor's payload in bytes.
func (t *Dense[E]) Bytes() int {
	var z E
	return len(t.Data) * int(unsafe.Sizeof(z))
}

// setShape points t at a new shape without allocating when the rank
// matches the previous use of the buffer (Pool's shape plumbing).
func (t *Dense[E]) setShape(shape []int) {
	if len(t.Shape) == len(shape) {
		copy(t.Shape, shape)
		return
	}
	t.Shape = append([]int(nil), shape...)
}
