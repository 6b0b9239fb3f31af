package nn

import (
	"math"
	"math/rand"
	"testing"

	"mtmlf/internal/ag"
	"mtmlf/internal/tensor"
)

// layerSuite holds one grad-tape instance of every layer type; each
// test runs the same suite through the grad tape and through the
// lowered no-grad forward at one or both element types.
type layerSuite struct {
	lin  *Linear
	mlp  *MLP
	ln   *LayerNorm
	emb  *Embedding
	mha  *MultiHeadAttention
	encl *EncoderLayer
	enc  *Encoder
	dec  *Decoder
	tp   *TreePositionalEncoder
}

var (
	suiteIDs   = []int{4, 1, 4}
	suitePaths = []TreePath{{}, {0}, {0, 1}, {1, 1, 0}}
)

func newLayerSuite(rng *rand.Rand, dim, heads int) *layerSuite {
	return &layerSuite{
		lin:  NewLinear(rng, dim, dim),
		mlp:  NewMLP(rng, ActGELU, dim, 4*dim, dim),
		ln:   NewLayerNorm(dim),
		emb:  NewEmbedding(rng, 10, dim),
		mha:  NewMultiHeadAttention(rng, dim, heads),
		encl: NewEncoderLayer(rng, dim, heads),
		enc:  NewEncoder(rng, dim, heads, 2),
		dec:  NewDecoder(rng, dim, heads, 2),
		tp:   NewTreePositionalEncoder(rng, 6, dim),
	}
}

// suiteOutput is one layer's output in the suite's fixed order.
type suiteOutput[E tensor.Float] struct {
	name string
	out  *tensor.Dense[E]
}

// forward runs every layer on the grad tape (mask is the self-attention
// mask, nil for none).
func (s *layerSuite) forward(x, mem, mask *tensor.Tensor) []suiteOutput[float64] {
	xv, memv := ag.Const(x), ag.Const(mem)
	return []suiteOutput[float64]{
		{"Linear", s.lin.Forward(xv).T},
		{"MLP", s.mlp.Forward(xv).T},
		{"LayerNorm", s.ln.Forward(xv).T},
		{"Embedding", s.emb.Forward(suiteIDs).T},
		{"MHA", s.mha.Forward(xv, xv, mask).T},
		{"MHA-cross", s.mha.Forward(xv, memv, nil).T},
		{"EncoderLayer", s.encl.Forward(xv, mask).T},
		{"Encoder", s.enc.Forward(xv, mask).T},
		{"Decoder", s.dec.Forward(xv, memv, mask).T},
		{"TreePos", s.tp.Forward(suitePaths).T},
	}
}

// infer lowers every layer to E at precision p and runs its no-grad
// forward, in the order of forward.
func infer[E tensor.Float](s *layerSuite, p Precision, e *ag.Session[E], x, mem, mask *tensor.Dense[E]) []suiteOutput[E] {
	mha := LowerAttention[E](s.mha, p)
	return []suiteOutput[E]{
		{"Linear", LowerLinear[E](s.lin, p).Infer(e, x)},
		{"MLP", LowerMLP[E](s.mlp, p).Infer(e, x)},
		{"LayerNorm", LowerLayerNorm[E](s.ln).Infer(e, x)},
		{"Embedding", LowerEmbedding[E](s.emb).Infer(e, suiteIDs)},
		{"MHA", mha.Infer(e, x, x, mask)},
		{"MHA-cross", mha.Infer(e, x, mem, nil)},
		{"EncoderLayer", LowerEncoderLayer[E](s.encl, p).Infer(e, x, mask)},
		{"Encoder", LowerEncoder[E](s.enc, p).Infer(e, x, mask)},
		{"Decoder", LowerDecoder[E](s.dec, p).Infer(e, x, mem, mask)},
		{"TreePos", LowerTreePositionalEncoder[E](s.tp, p).Infer(e, suitePaths)},
	}
}

// TestInferBitwiseMatchesForward asserts the float64 view of every
// layer produces bitwise identical outputs (eps = 0) to the
// grad-tracked Forward, with and without a causal mask.
func TestInferBitwiseMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const dim, heads, seq, memLen = 24, 4, 6, 5
	s := newLayerSuite(rng, dim, heads)
	x := tensor.Rand(rng, seq, dim, 1)
	mem := tensor.Rand(rng, memLen, dim, 1)

	e := ag.NewSession[float64]()
	defer e.Reset()
	for _, mask := range []*tensor.Tensor{CausalMask(seq), nil} {
		want := s.forward(x, mem, mask)
		for i, got := range infer(s, PrecisionF64, e, x, mem, mask) {
			if !tensor.Equal(want[i].out, got.out, 0) {
				t.Fatalf("%s (mask %v): no-grad output differs from Forward", got.name, mask != nil)
			}
		}
	}
}

// checkLowered asserts a lowered weight re-raised to float64 is
// within relTol of the original, element by element.
func checkLowered[E tensor.Float](t *testing.T, name string, lowered *tensor.Dense[E], orig *tensor.Tensor, relTol float64) {
	t.Helper()
	back := lowered.ToTensor()
	for i := range orig.Data {
		if d := math.Abs(back.Data[i] - orig.Data[i]); d > math.Abs(orig.Data[i])*relTol {
			t.Fatalf("%s element %d: round-trip error %g exceeds %g relative", name, i, d, relTol)
		}
	}
}

// TestLowerRoundTripF32 pins the f64 -> f32 -> f64 weight round trip
// per layer type: every lowered weight re-raised to float64 is within
// one float32 ulp of the original (relative 2^-24). At float64 the
// lowering is a view: every weight is the trained tensor itself.
func TestLowerRoundTripF32(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const ulp32 = 1.0 / (1 << 24)

	lin := NewLinear(rng, 24, 16)
	lf := LowerLinear[float32](lin, PrecisionF32)
	checkLowered(t, "Linear.W", lf.W, lin.W.T, ulp32)
	checkLowered(t, "Linear.B", lf.B, lin.B.T, ulp32)

	ln := NewLayerNorm(16)
	lnf := LowerLayerNorm[float32](ln)
	checkLowered(t, "LayerNorm.Gamma", lnf.Gamma, ln.Gamma.T, ulp32)
	checkLowered(t, "LayerNorm.Beta", lnf.Beta, ln.Beta.T, ulp32)
	if lnf.Eps != ln.Eps {
		t.Fatal("LayerNorm.Eps not preserved")
	}

	emb := NewEmbedding(rng, 12, 16)
	checkLowered(t, "Embedding.W", LowerEmbedding[float32](emb).W, emb.W.T, ulp32)

	mlp := NewMLP(rng, ActGELU, 16, 32, 16)
	mf := LowerMLP[float32](mlp, PrecisionF32)
	for i, l := range mf.Layers {
		checkLowered(t, "MLP layer W", l.W, mlp.Layers[i].W.T, ulp32)
	}

	l64 := LowerLinear[float64](lin, PrecisionF64)
	ln64 := LowerLayerNorm[float64](ln)
	if l64.W != lin.W.T || l64.B != lin.B.T || ln64.Gamma != ln.Gamma.T ||
		LowerEmbedding[float64](emb).W != emb.W.T || LowerMLP[float64](mlp, PrecisionF64).Layers[1].W != mlp.Layers[1].W.T {
		t.Fatal("float64 lowering copied a weight instead of sharing it")
	}
}

// TestLowerInt8WeightBound is the layer-level int8 property test: the
// dequantized weight of a lowered Linear never deviates from the
// original by more than scale/2 per element, and the resident bytes
// are under half the float64 layer.
func TestLowerInt8WeightBound(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	lin := NewLinear(rng, 48, 32)
	lf := LowerLinear[float32](lin, PrecisionInt8)
	if lf.W != nil || lf.W8 == nil {
		t.Fatal("int8 lowering kept f32 weights")
	}
	deq := lf.W8.Dequantize()
	for j := 0; j < 32; j++ {
		scale := float64(lf.W8.Scales[j])
		for l := 0; l < 48; l++ {
			if d := math.Abs(lin.W.T.At(l, j) - deq.At(l, j)); d > scale/2+scale*1e-6 {
				t.Fatalf("w[%d,%d]: error %g > scale/2 %g", l, j, d, scale/2)
			}
		}
	}
	f64Bytes := 8 * (lin.W.T.Size() + lin.B.T.Size())
	if lf.Bytes()*2 > f64Bytes {
		t.Fatalf("int8 layer bytes %d not under half of f64 %d", lf.Bytes(), f64Bytes)
	}
	if got := LowerLinear[float64](lin, PrecisionF64).Bytes(); got != f64Bytes {
		t.Fatalf("float64 view reports %d bytes, want %d", got, f64Bytes)
	}
}

// TestLoweredLayersTrackFloat64 runs every layer of the suite at f32
// against the float64 view on the same inputs and bounds the relative
// output error — the per-layer calibration contract the end-to-end
// q-error budgets build on.
func TestLoweredLayersTrackFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	s := newLayerSuite(rng, 16, 2)
	x64 := tensor.Rand(rng, 7, 16, 1)
	mem64 := tensor.Rand(rng, 5, 16, 1)
	x32, mem32 := tensor.As[float32](x64), tensor.As[float32](mem64)

	e64 := ag.NewSession[float64]()
	defer e64.Reset()
	e32 := ag.NewSession[float32]()
	defer e32.Reset()

	tol := map[string]float64{
		"Linear": 1e-4, "LayerNorm": 1e-3, "Embedding": 1e-6, "MLP": 1e-3,
		"MHA": 1e-3, "MHA-cross": 1e-3, "EncoderLayer": 1e-2, "Encoder": 1e-2,
		"Decoder": 1e-2, "TreePos": 1e-4,
	}
	want := infer(s, PrecisionF64, e64, x64, mem64, nil)
	for i, got := range infer(s, PrecisionF32, e32, x32, mem32, nil) {
		maxRelErr(t, got.name+"/f32", got.out, want[i].out, tol[got.name])
	}
}

// TestLoweredEncoderInt8TracksFloat64 bounds the int8 tier at the
// encoder level with the looser absolute budget calibration assigns it.
func TestLoweredEncoderInt8TracksFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	x64 := tensor.Rand(rng, 7, 16, 1)
	x32 := tensor.As[float32](x64)

	e64 := ag.NewSession[float64]()
	defer e64.Reset()
	e32 := ag.NewSession[float32]()
	defer e32.Reset()

	enc := NewEncoder(rng, 16, 2, 2)
	got := LowerEncoder[float32](enc, PrecisionInt8).Infer(e32, x32, nil)
	want := LowerEncoder[float64](enc, PrecisionF64).Infer(e64, x64, nil)
	for i := range want.Data {
		if d := math.Abs(float64(got.Data[i]) - want.Data[i]); d > 0.25 {
			t.Fatalf("int8 encoder element %d: |%v - %v| = %g", i, got.Data[i], want.Data[i], d)
		}
	}
}

// relErr is |got-want| / max(1e-6, |want|).
func relErr(got float32, want float64) float64 {
	d := math.Abs(float64(got) - want)
	m := math.Abs(want)
	if m < 1e-6 {
		m = 1e-6
	}
	return d / m
}

func maxRelErr(t *testing.T, name string, got *tensor.F32, want *tensor.Tensor, tol float64) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: shape mismatch %v vs %v", name, got.Shape, want.Shape)
	}
	worst := 0.0
	for i := range want.Data {
		if e := relErr(got.Data[i], want.Data[i]); e > worst {
			worst = e
		}
	}
	if worst > tol {
		t.Fatalf("%s: max relative error %.3g exceeds %.3g", name, worst, tol)
	}
}

// TestParsePrecision covers the flag surface.
func TestParsePrecision(t *testing.T) {
	for s, want := range map[string]Precision{"f64": PrecisionF64, "f32": PrecisionF32, "int8": PrecisionInt8} {
		got, err := ParsePrecision(s)
		if err != nil || got != want {
			t.Fatalf("ParsePrecision(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("Precision(%v).String() = %q, want %q", got, got.String(), s)
		}
	}
	if _, err := ParsePrecision("bf16"); err == nil {
		t.Fatal("ParsePrecision accepted unknown tier")
	}
}
