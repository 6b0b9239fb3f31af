// Precision lowering: the pass that converts trained float64 layers
// into no-grad inference layers over element type E, and the one
// no-grad forward of every layer.
//
// The grad-tape layers (nn.go, transformer.go) only build autodiff
// graphs; every no-grad forward runs on a lowered layer and an
// ag.Session[E]. Lowering to float64 (PrecisionF64) builds a view: the
// lowered layer points at the trained weight tensors themselves (no
// copy; tensor.As is the identity at float64), so it serves numbers
// bitwise identical to the grad-tape Forward and tracks every later
// in-place weight update. Lowering to float32 rounds the weights into
// a replica rebuilt at load/reload time; lowering to PrecisionInt8
// additionally quantizes every Linear weight per output channel
// (tensor.QuantizeLinear) while biases, layer norms, embeddings and
// learned tokens stay float32 — they are a rounding error of the
// resident bytes and their dynamic range does not survive 8 bits. The
// int8 kernel takes float32 activations only, so int8 weights serve
// from an ag.EvalF32 session.
//
// Within a tier serial and sharded results are bitwise equal (the
// kernels guarantee it); across tiers agreement with the float64
// reference is *calibrated*, not bitwise — internal/calib enforces the
// q-error budgets (DESIGN.md §9).
package nn

import (
	"fmt"
	"math"

	"mtmlf/internal/ag"
	"mtmlf/internal/tensor"
)

// Precision selects the numeric tier an inference replica runs at.
// The zero value is the full float64 reference path.
type Precision int

// Supported precision tiers.
const (
	PrecisionF64 Precision = iota
	PrecisionF32
	PrecisionInt8
)

// String returns the flag spelling of p ("f64", "f32", "int8").
func (p Precision) String() string {
	switch p {
	case PrecisionF64:
		return "f64"
	case PrecisionF32:
		return "f32"
	case PrecisionInt8:
		return "int8"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// ParsePrecision parses a -precision flag value.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64", "float64":
		return PrecisionF64, nil
	case "f32", "float32":
		return PrecisionF32, nil
	case "int8":
		return PrecisionInt8, nil
	}
	return 0, fmt.Errorf("nn: unknown precision %q (want f64, f32 or int8)", s)
}

// LoweredLinear is a lowered linear layer: either E weights (W) or
// int8-quantized weights (W8), exactly one of which is non-nil.
type LoweredLinear[E tensor.Float] struct {
	W  *tensor.Dense[E]   // [in, out]
	W8 *tensor.Int8Matrix // int8 tier (stored transposed [out, in])
	B  *tensor.Dense[E]   // [1, out]
}

// LowerLinear lowers a trained linear layer to E; p = PrecisionInt8
// quantizes the weight.
func LowerLinear[E tensor.Float](l *Linear, p Precision) *LoweredLinear[E] {
	lf := &LoweredLinear[E]{B: tensor.As[E](l.B.T)}
	if p == PrecisionInt8 {
		lf.W8 = tensor.QuantizeLinear(l.W.T)
	} else {
		lf.W = tensor.As[E](l.W.T)
	}
	return lf
}

// Infer applies the layer to x [n, in] producing [n, out].
func (l *LoweredLinear[E]) Infer(e *ag.Session[E], x *tensor.Dense[E]) *tensor.Dense[E] {
	if l.W8 != nil {
		return e.LinearInt8(x, l.W8, l.B)
	}
	return e.AddBias(e.MatMul(x, l.W), l.B)
}

// Bytes returns the resident weight bytes of the layer.
func (l *LoweredLinear[E]) Bytes() int {
	n := l.B.Bytes()
	if l.W8 != nil {
		return n + l.W8.Bytes()
	}
	return n + l.W.Bytes()
}

// LoweredEmbedding is a lowered embedding table (never quantized:
// lookup rows feed matmuls as activations, not weights).
type LoweredEmbedding[E tensor.Float] struct {
	W *tensor.Dense[E] // [vocab, dim]
}

// LowerEmbedding lowers an embedding table to E.
func LowerEmbedding[E tensor.Float](emb *Embedding) *LoweredEmbedding[E] {
	return &LoweredEmbedding[E]{W: tensor.As[E](emb.W.T)}
}

// Infer looks up the rows for ids, in order.
func (emb *LoweredEmbedding[E]) Infer(e *ag.Session[E], ids []int) *tensor.Dense[E] {
	return e.Gather(emb.W, ids)
}

// Bytes returns the resident bytes of the table.
func (emb *LoweredEmbedding[E]) Bytes() int { return emb.W.Bytes() }

// LoweredLayerNorm is a lowered layer norm (never quantized).
type LoweredLayerNorm[E tensor.Float] struct {
	Gamma *tensor.Dense[E]
	Beta  *tensor.Dense[E]
	Eps   float64
}

// LowerLayerNorm lowers a layer norm to E.
func LowerLayerNorm[E tensor.Float](l *LayerNorm) *LoweredLayerNorm[E] {
	return &LoweredLayerNorm[E]{Gamma: tensor.As[E](l.Gamma.T), Beta: tensor.As[E](l.Beta.T), Eps: l.Eps}
}

// Infer applies the normalization.
func (l *LoweredLayerNorm[E]) Infer(e *ag.Session[E], x *tensor.Dense[E]) *tensor.Dense[E] {
	return e.LayerNormRows(x, l.Gamma, l.Beta, l.Eps)
}

// Bytes returns the resident bytes of the gain/bias rows.
func (l *LoweredLayerNorm[E]) Bytes() int { return l.Gamma.Bytes() + l.Beta.Bytes() }

// LoweredMLP is a lowered MLP.
type LoweredMLP[E tensor.Float] struct {
	Layers []*LoweredLinear[E]
	Act    Activation
}

// LowerMLP lowers an MLP to E at precision p.
func LowerMLP[E tensor.Float](m *MLP, p Precision) *LoweredMLP[E] {
	lf := &LoweredMLP[E]{Act: m.Act}
	for _, l := range m.Layers {
		lf.Layers = append(lf.Layers, LowerLinear[E](l, p))
	}
	return lf
}

// Infer applies the MLP.
func (m *LoweredMLP[E]) Infer(e *ag.Session[E], x *tensor.Dense[E]) *tensor.Dense[E] {
	for i, l := range m.Layers {
		x = l.Infer(e, x)
		if i+1 < len(m.Layers) {
			switch m.Act {
			case ActReLU:
				x = e.ReLU(x)
			case ActGELU:
				x = e.GELU(x)
			case ActTanh:
				x = e.Tanh(x)
			default:
				panic("nn: unknown activation")
			}
		}
	}
	return x
}

// Bytes returns the resident bytes of the stack.
func (m *LoweredMLP[E]) Bytes() int {
	n := 0
	for _, l := range m.Layers {
		n += l.Bytes()
	}
	return n
}

// LoweredAttention is a lowered multi-head attention block.
type LoweredAttention[E tensor.Float] struct {
	WQ, WK, WV, WO *LoweredLinear[E]
	Heads          int
	Dim            int
}

// LowerAttention lowers an attention block to E at precision p.
func LowerAttention[E tensor.Float](a *MultiHeadAttention, p Precision) *LoweredAttention[E] {
	return &LoweredAttention[E]{
		WQ:    LowerLinear[E](a.WQ, p),
		WK:    LowerLinear[E](a.WK, p),
		WV:    LowerLinear[E](a.WV, p),
		WO:    LowerLinear[E](a.WO, p),
		Heads: a.Heads,
		Dim:   a.Dim,
	}
}

// Infer attends queries q [lq, dim] over keys/values kv [lk, dim],
// applying the kernels of MultiHeadAttention.Forward in the same
// order. mask, if non-nil, is a [lq, lk] additive mask.
func (a *LoweredAttention[E]) Infer(e *ag.Session[E], q, kv, mask *tensor.Dense[E]) *tensor.Dense[E] {
	Q := a.WQ.Infer(e, q)
	K := a.WK.Infer(e, kv)
	V := a.WV.Infer(e, kv)
	dh := a.Dim / a.Heads
	scale := 1 / math.Sqrt(float64(dh))
	qhs := make([]*tensor.Dense[E], a.Heads)
	khs := make([]*tensor.Dense[E], a.Heads)
	vhs := make([]*tensor.Dense[E], a.Heads)
	for h := 0; h < a.Heads; h++ {
		qhs[h] = e.SliceCols(Q, h*dh, (h+1)*dh)
		khs[h] = e.SliceCols(K, h*dh, (h+1)*dh)
		vhs[h] = e.SliceCols(V, h*dh, (h+1)*dh)
	}
	scores := e.MatMulTransBBatch(qhs, khs)
	attns := make([]*tensor.Dense[E], a.Heads)
	for h, s := range scores {
		s = e.Scale(s, scale)
		if mask != nil {
			s = e.Add(s, mask)
		}
		attns[h] = e.SoftmaxRows(s)
	}
	heads := e.MatMulBatch(attns, vhs)
	return a.WO.Infer(e, e.ConcatCols(heads...))
}

// Bytes returns the resident bytes of the four projections.
func (a *LoweredAttention[E]) Bytes() int {
	return a.WQ.Bytes() + a.WK.Bytes() + a.WV.Bytes() + a.WO.Bytes()
}

// LoweredEncoderLayer is a lowered post-norm encoder block.
type LoweredEncoderLayer[E tensor.Float] struct {
	Attn     *LoweredAttention[E]
	FF       *LoweredMLP[E]
	LN1, LN2 *LoweredLayerNorm[E]
}

// LowerEncoderLayer lowers one encoder block to E at precision p.
func LowerEncoderLayer[E tensor.Float](l *EncoderLayer, p Precision) *LoweredEncoderLayer[E] {
	return &LoweredEncoderLayer[E]{
		Attn: LowerAttention[E](l.Attn, p),
		FF:   LowerMLP[E](l.FF, p),
		LN1:  LowerLayerNorm[E](l.LN1),
		LN2:  LowerLayerNorm[E](l.LN2),
	}
}

// Infer applies the block.
func (l *LoweredEncoderLayer[E]) Infer(e *ag.Session[E], x, mask *tensor.Dense[E]) *tensor.Dense[E] {
	x = l.LN1.Infer(e, e.Add(x, l.Attn.Infer(e, x, x, mask)))
	return l.LN2.Infer(e, e.Add(x, l.FF.Infer(e, x)))
}

// Bytes returns the resident bytes of the block.
func (l *LoweredEncoderLayer[E]) Bytes() int {
	return l.Attn.Bytes() + l.FF.Bytes() + l.LN1.Bytes() + l.LN2.Bytes()
}

// LoweredEncoder is a lowered encoder stack.
type LoweredEncoder[E tensor.Float] struct {
	Layers []*LoweredEncoderLayer[E]
}

// LowerEncoder lowers an encoder stack to E at precision p.
func LowerEncoder[E tensor.Float](enc *Encoder, p Precision) *LoweredEncoder[E] {
	out := &LoweredEncoder[E]{}
	for _, l := range enc.Layers {
		out.Layers = append(out.Layers, LowerEncoderLayer[E](l, p))
	}
	return out
}

// Infer applies the stack.
func (enc *LoweredEncoder[E]) Infer(e *ag.Session[E], x, mask *tensor.Dense[E]) *tensor.Dense[E] {
	for _, l := range enc.Layers {
		x = l.Infer(e, x, mask)
	}
	return x
}

// Bytes returns the resident bytes of the stack.
func (enc *LoweredEncoder[E]) Bytes() int {
	n := 0
	for _, l := range enc.Layers {
		n += l.Bytes()
	}
	return n
}

// LoweredDecoderLayer is a lowered post-norm decoder block.
type LoweredDecoderLayer[E tensor.Float] struct {
	SelfAttn      *LoweredAttention[E]
	CrossAttn     *LoweredAttention[E]
	FF            *LoweredMLP[E]
	LN1, LN2, LN3 *LoweredLayerNorm[E]
}

// LowerDecoderLayer lowers one decoder block to E at precision p.
func LowerDecoderLayer[E tensor.Float](l *DecoderLayer, p Precision) *LoweredDecoderLayer[E] {
	return &LoweredDecoderLayer[E]{
		SelfAttn:  LowerAttention[E](l.SelfAttn, p),
		CrossAttn: LowerAttention[E](l.CrossAttn, p),
		FF:        LowerMLP[E](l.FF, p),
		LN1:       LowerLayerNorm[E](l.LN1),
		LN2:       LowerLayerNorm[E](l.LN2),
		LN3:       LowerLayerNorm[E](l.LN3),
	}
}

// Infer applies the block over the full prefix x with causal mask
// causal (nil for none) and encoder memory mem.
func (l *LoweredDecoderLayer[E]) Infer(e *ag.Session[E], x, mem, causal *tensor.Dense[E]) *tensor.Dense[E] {
	x = l.LN1.Infer(e, e.Add(x, l.SelfAttn.Infer(e, x, x, causal)))
	x = l.LN2.Infer(e, e.Add(x, l.CrossAttn.Infer(e, x, mem, nil)))
	return l.LN3.Infer(e, e.Add(x, l.FF.Infer(e, x)))
}

// LoweredDecoder is a lowered decoder stack. Besides the full-prefix
// Infer it decodes incrementally against K/V caches (kvcache.go).
type LoweredDecoder[E tensor.Float] struct {
	Layers []*LoweredDecoderLayer[E]
}

// LowerDecoder lowers a decoder stack to E at precision p.
func LowerDecoder[E tensor.Float](d *Decoder, p Precision) *LoweredDecoder[E] {
	out := &LoweredDecoder[E]{}
	for _, l := range d.Layers {
		out.Layers = append(out.Layers, LowerDecoderLayer[E](l, p))
	}
	return out
}

// Infer applies the stack with a shared causal mask.
func (d *LoweredDecoder[E]) Infer(e *ag.Session[E], x, mem, causal *tensor.Dense[E]) *tensor.Dense[E] {
	for _, l := range d.Layers {
		x = l.Infer(e, x, mem, causal)
	}
	return x
}

// LoweredTreePositionalEncoder is a lowered tree positional encoder.
// It keeps a reference to its source for the memoized RawFeature rows
// (the raw 0/1 features are exact in every tier).
type LoweredTreePositionalEncoder[E tensor.Float] struct {
	MaxDepth int
	Proj     *LoweredLinear[E]
	src      *TreePositionalEncoder
}

// LowerTreePositionalEncoder lowers the tree positional encoder to E
// at precision p.
func LowerTreePositionalEncoder[E tensor.Float](t *TreePositionalEncoder, p Precision) *LoweredTreePositionalEncoder[E] {
	return &LoweredTreePositionalEncoder[E]{MaxDepth: t.MaxDepth, Proj: LowerLinear[E](t.Proj, p), src: t}
}

// Infer encodes a batch of paths into a [len(paths), dim] matrix.
func (t *LoweredTreePositionalEncoder[E]) Infer(e *ag.Session[E], paths []TreePath) *tensor.Dense[E] {
	raw := e.Get(len(paths), 2*t.MaxDepth)
	for i, p := range paths {
		row := raw.Row(i)
		for j, v := range t.src.RawFeature(p) {
			row[j] = E(v)
		}
	}
	return t.Proj.Infer(e, raw)
}

// Bytes returns the resident bytes of the projection.
func (t *LoweredTreePositionalEncoder[E]) Bytes() int { return t.Proj.Bytes() }
