package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestMatMulF32MatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range shapes {
		a, b := randDense[float32](rng, sh.m, sh.k), randDense[float32](rng, sh.k, sh.n)
		out := NewDense[float32](sh.m, sh.n)
		MatMulInto(a, b, out)
		if !Equal(out, refMatMul(a, b), 0) {
			t.Fatalf("[%dx%d @ %dx%d] blocked f32 kernel differs from reference", sh.m, sh.k, sh.k, sh.n)
		}
	}
}

func TestMatMulF32ParallelMatchesSerialBitwise(t *testing.T) {
	checkMatMulBitwise[float32](t, 2)
}

func TestMatMulTransBF32ParallelMatchesSerialBitwise(t *testing.T) {
	checkMatMulTransBBitwise[float32](t, 3, nil)
}

// TestMatMulF32NearFloat64 pins the cross-tier calibration bound at
// the kernel level: f32 against the float64 reference on the same
// inputs, relative error within ~1e-5 at transformer sizes.
func TestMatMulF32NearFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a64, b64 := randPair(rng, 64, 96, 48)
	out64 := MatMul(a64, b64)
	out32 := NewDense[float32](64, 48)
	MatMulInto(As[float32](a64), As[float32](b64), out32)
	for i := range out64.Data {
		ref := out64.Data[i]
		got := float64(out32.Data[i])
		if math.Abs(got-ref) > 1e-4+1e-4*math.Abs(ref) {
			t.Fatalf("element %d: f32 %v vs f64 %v", i, got, ref)
		}
	}
}

func TestElementwiseF32KernelsMatchFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a64 := RandNorm(rng, 9, 33, 2)
	a32 := As[float32](a64)
	gamma := RandNorm(rng, 1, 33, 1)
	beta := RandNorm(rng, 1, 33, 1)

	check := func(name string, got *F32, want *Tensor, tol float64) {
		t.Helper()
		for i := range want.Data {
			if math.Abs(float64(got.Data[i])-want.Data[i]) > tol {
				t.Fatalf("%s element %d: f32 %v vs f64 %v", name, i, got.Data[i], want.Data[i])
			}
		}
	}

	out32 := NewDense[float32](9, 33)
	out64 := New(9, 33)

	SoftmaxRowsInto(a32, out32)
	SoftmaxRowsInto(a64, out64)
	check("softmax", out32, out64, 1e-5)

	LogSoftmaxRowsInto(a32, out32)
	LogSoftmaxRowsInto(a64, out64)
	check("logsoftmax", out32, out64, 1e-4)

	LayerNormRowsInto(a32, As[float32](gamma), As[float32](beta), 1e-5, out32)
	LayerNormRowsInto(a64, gamma, beta, 1e-5, out64)
	check("layernorm", out32, out64, 1e-4)

	GELUInto(a32, out32)
	GELUInto(a64, out64)
	check("gelu", out32, out64, 1e-5)

	ReLUInto(a32, out32)
	ReLUInto(a64, out64)
	check("relu", out32, out64, 1e-6)

	TanhInto(a32, out32)
	TanhInto(a64, out64)
	check("tanh", out32, out64, 1e-6)

	SigmoidInto(a32, out32)
	SigmoidInto(a64, out64)
	check("sigmoid", out32, out64, 1e-6)

	bias := As[float32](gamma)
	AddBiasInto(a32, bias, out32)
	AddBiasInto(a64, gamma, out64)
	check("addbias", out32, out64, 1e-6)
}

func TestPoolF32ReusesBuffers(t *testing.T) { checkPoolReuse[float32](t) }

// TestQuantizeRowInt8RoundTripBound is the lowering property test: the
// dequantized row never deviates from the original by more than
// scale/2 per element (tiny slack for the float32 scale rounding).
func TestQuantizeRowInt8RoundTripBound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	q := make([]int8, 512)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(512)
		row := make([]float32, n)
		scalePow := math.Pow(10, float64(rng.Intn(9)-4)) // magnitudes 1e-4 .. 1e4
		for i := range row {
			row[i] = float32(rng.NormFloat64() * scalePow)
		}
		scale := float64(QuantizeRowInt8(row, q))
		bound := scale/2 + scale*1e-6
		for i, v := range row {
			deq := float64(q[i]) * scale
			if math.Abs(float64(v)-deq) > bound {
				t.Fatalf("trial %d elem %d: |%v - %v| = %v > scale/2 = %v",
					trial, i, v, deq, math.Abs(float64(v)-deq), scale/2)
			}
		}
	}
	// All-zero row: scale 1, zero codes.
	zero := make([]float32, 16)
	if s := QuantizeRowInt8(zero, q); s != 1 {
		t.Fatalf("zero-row scale = %v, want 1", s)
	}
	for i := 0; i < 16; i++ {
		if q[i] != 0 {
			t.Fatal("zero row quantized to non-zero code")
		}
	}
}

func TestQuantizeLinearRoundTripBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := Xavier(rng, 48, 32)
	qw := QuantizeLinear(w)
	deq := qw.Dequantize()
	for j := 0; j < 32; j++ {
		scale := float64(qw.Scales[j])
		for l := 0; l < 48; l++ {
			if d := math.Abs(w.At(l, j) - deq.At(l, j)); d > scale/2+scale*1e-6 {
				t.Fatalf("w[%d,%d]: error %v > scale/2 %v", l, j, d, scale/2)
			}
		}
	}
	if got, want := qw.Bytes(), 48*32+4*32; got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
}

func TestMatMulInt8ParallelMatchesSerialBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, sh := range []struct{ m, k, n int }{{3, 5, 7}, {64, 64, 64}, {130, 140, 150}} {
		a := As[float32](RandNorm(rng, sh.m, sh.k, 1))
		w := QuantizeLinear(Xavier(rng, sh.k, sh.n))
		bias := As[float32](RandNorm(rng, 1, sh.n, 1))
		qbuf := make([]int8, sh.m*sh.k)
		serial := NewDense[float32](sh.m, sh.n)
		par := NewDense[float32](sh.m, sh.n)
		SetParallelism(1)
		MatMulInt8Into(a, w, bias, serial, qbuf)
		SetParallelism(8)
		MatMulInt8Into(a, w, bias, par, qbuf)
		SetParallelism(0)
		if !Equal(serial, par, 0) {
			t.Fatalf("[%dx%dx%d] parallel int8 result differs from serial", sh.m, sh.k, sh.n)
		}
	}
}

// TestMatMulInt8NearFloat64 bounds the int8 kernel against the exact
// float64 product: with per-row symmetric scales on both operands the
// per-element error is bounded by the two quantization steps times the
// operand magnitudes, loose but deterministic.
func TestMatMulInt8NearFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, k, n := 16, 64, 32
	a64 := RandNorm(rng, m, k, 1)
	w64 := Xavier(rng, k, n)
	bias64 := RandNorm(rng, 1, n, 0.5)

	ref := MatMul(a64, w64)
	AddBiasInto(ref, bias64, ref)

	out := NewDense[float32](m, n)
	MatMulInt8Into(As[float32](a64), QuantizeLinear(w64), As[float32](bias64), out, make([]int8, m*k))

	for i := range ref.Data {
		if d := math.Abs(float64(out.Data[i]) - ref.Data[i]); d > 0.05 {
			t.Fatalf("element %d: int8 %v vs f64 %v (|d| = %v)", i, out.Data[i], ref.Data[i], d)
		}
	}
}
