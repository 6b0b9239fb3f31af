// Inference fast path: a forward-only evaluator.
//
// Training builds an autodiff graph — every op allocates a *Value
// node, a fresh result tensor, parent links and a backward closure,
// and Backward topo-sorts the lot. None of that is needed to *serve* a
// model. Session is the no-grad form of the op set: it computes the
// same forward arithmetic directly on raw tensors drawn from a
// tensor.Pool, so a steady-state forward pass performs no node
// construction, no parent tracking, no topo-sort bookkeeping, and
// (once the pool is warm) no heap allocation.
//
// Session is generic over the element type E: Eval (Session[float64])
// serves the reference tier, EvalF32 (Session[float32]) the f32 and
// int8 tiers, with one op set and one kernel family (tensor's Into
// kernels) for both.
//
// Equivalence contract: at float64, every op produces output BITWISE
// identical to the grad-tracked op's forward result (asserted with
// eps = 0 in eval_test.go). This is what lets the serving path swap in
// underneath the experiments without perturbing a single number. At
// float32 the contract is serial == sharded bitwise, and cross-tier
// agreement is calibrated by internal/calib.
//
// Lifetime rules: tensors returned by Session ops belong to the
// session's pool and die at the next Reset. A Session is single-
// goroutine; concurrent inference sessions each acquire their own
// (AcquireSession / ReleaseSession, or the per-tier AcquireEval /
// AcquireEvalF32 pairs, or the NoGrad convenience wrapper).
// DESIGN.md "Session ownership" spells out the full serving-layer
// contract (session = one Session, session lifetime = batch lifetime,
// copy results out before release); internal/serve is built on it.
package ag

import (
	"fmt"
	"sync"

	"mtmlf/internal/tensor"
)

// Session is a pooled forward-only evaluator over E tensors — the
// substrate analogue of torch.no_grad() + inference tensor reuse. Not
// safe for concurrent use; see AcquireSession.
type Session[E tensor.Float] struct {
	pool *tensor.Pool[E]
	// views is a freelist of tensor headers for zero-copy row views,
	// recycled on Reset like the pooled buffers.
	views []*tensor.Dense[E]
	vnext int
	// qscratch is the int8 activation scratch LinearInt8 quantizes
	// into; grown on demand, retained across Resets so the steady
	// state allocates nothing.
	qscratch []int8
}

// Eval is the float64 session of the reference tier.
type Eval = Session[float64]

// EvalF32 is the float32 session of the f32 and int8 tiers.
type EvalF32 = Session[float32]

// NewSession creates a session with an empty pool.
func NewSession[E tensor.Float]() *Session[E] {
	return &Session[E]{pool: tensor.NewPool[E]()}
}

// Reset reclaims every tensor and view handed out by this session.
func (e *Session[E]) Reset() {
	e.pool.Reset()
	e.vnext = 0
}

// Get returns a zeroed pooled tensor — scratch for callers that
// write elements selectively (one-hot feature rows and the like).
// The op methods below use the pool's unzeroed variant internally
// when they overwrite every element anyway.
func (e *Session[E]) Get(shape ...int) *tensor.Dense[E] { return e.pool.Get(shape...) }

// The process-wide session free-lists, one per element type: Go has no
// generic package variables, so sessionFree picks between the two.
var (
	evalFree    = sync.Pool{New: func() any { return NewSession[float64]() }}
	evalF32Free = sync.Pool{New: func() any { return NewSession[float32]() }}
)

func sessionFree[E tensor.Float]() *sync.Pool {
	if _, ok := any(E(0)).(float32); ok {
		return &evalF32Free
	}
	return &evalFree
}

// AcquireSession checks a warm session out of E's process-wide
// free-list. Pair with ReleaseSession.
func AcquireSession[E tensor.Float]() *Session[E] {
	return sessionFree[E]().Get().(*Session[E])
}

// ReleaseSession resets e and returns it to E's process-wide
// free-list. Every tensor it handed out becomes invalid.
func ReleaseSession[E tensor.Float](e *Session[E]) {
	e.Reset()
	sessionFree[E]().Put(e)
}

// AcquireEval checks a warm float64 session out of the process-wide
// free-list. Pair with ReleaseEval.
func AcquireEval() *Eval { return AcquireSession[float64]() }

// ReleaseEval is ReleaseSession for the float64 session.
func ReleaseEval(e *Eval) { ReleaseSession(e) }

// AcquireEvalF32 checks a warm float32 session out of the process-wide
// free-list. Pair with ReleaseEvalF32.
func AcquireEvalF32() *EvalF32 { return AcquireSession[float32]() }

// ReleaseEvalF32 is ReleaseSession for the float32 session.
func ReleaseEvalF32(e *EvalF32) { ReleaseSession(e) }

// NoGrad runs f with a pooled float64 session, then reclaims
// everything the session handed out. Results that must survive f must
// be copied out (Clone) before it returns.
func NoGrad(f func(e *Eval)) {
	e := AcquireEval()
	defer ReleaseEval(e)
	f(e)
}

// RowsView returns a zero-copy view of rows [from, to) of t. The view
// shares t's backing array and dies at Reset; callers must treat it as
// read-only. Values are identical to ag.SliceRows's copy.
func (e *Session[E]) RowsView(t *tensor.Dense[E], from, to int) *tensor.Dense[E] {
	m, n := t.Rows(), t.Cols()
	if from < 0 || to > m || from > to {
		panic(fmt.Sprintf("ag: Session.RowsView [%d,%d) of %d rows", from, to, m))
	}
	return e.view(t.Data[from*n:to*n], to-from, n)
}

// RowSeg returns a zero-copy [1, to-from] view of columns [from, to)
// of row i of t (a single row segment is contiguous in row-major
// layout). Same lifetime and read-only rules as RowsView.
func (e *Session[E]) RowSeg(t *tensor.Dense[E], i, from, to int) *tensor.Dense[E] {
	n := t.Cols()
	if i < 0 || i >= t.Rows() || from < 0 || to > n || from > to {
		panic(fmt.Sprintf("ag: Session.RowSeg row %d cols [%d,%d) of %v", i, from, to, t.Shape))
	}
	return e.view(t.Data[i*n+from:i*n+to], 1, to-from)
}

// view hands out a recycled tensor header over data.
func (e *Session[E]) view(data []E, rows, cols int) *tensor.Dense[E] {
	if e.vnext < len(e.views) {
		v := e.views[e.vnext]
		e.vnext++
		v.Data = data
		v.Shape[0], v.Shape[1] = rows, cols
		return v
	}
	v := &tensor.Dense[E]{Data: data, Shape: []int{rows, cols}}
	e.views = append(e.views, v)
	e.vnext++
	return v
}

// ---------------------------------------------------------------------------
// Op set (forward halves of the ag ops, pooled outputs)
// ---------------------------------------------------------------------------

// Add returns a + b.
func (e *Session[E]) Add(a, b *tensor.Dense[E]) *tensor.Dense[E] {
	out := e.pool.GetUninit(a.Shape...)
	tensor.AddInto(a, b, out)
	return out
}

// Scale returns s * a (s is rounded to E once, not per element).
func (e *Session[E]) Scale(a *tensor.Dense[E], s float64) *tensor.Dense[E] {
	out := e.pool.GetUninit(a.Shape...)
	tensor.ScaleInto(a, E(s), out)
	return out
}

// AddBias broadcasts a 1xN bias row across every row of a.
func (e *Session[E]) AddBias(a, bias *tensor.Dense[E]) *tensor.Dense[E] {
	out := e.pool.GetUninit(a.Shape...)
	tensor.AddBiasInto(a, bias, out)
	return out
}

// MatMul returns a @ b.
func (e *Session[E]) MatMul(a, b *tensor.Dense[E]) *tensor.Dense[E] {
	out := e.pool.Get(a.Rows(), b.Cols())
	tensor.MatMulInto(a, b, out)
	return out
}

// MatMulTransB returns a @ b^T.
func (e *Session[E]) MatMulTransB(a, b *tensor.Dense[E]) *tensor.Dense[E] {
	out := e.pool.GetUninit(a.Rows(), b.Rows())
	tensor.MatMulTransBInto(a, b, out)
	return out
}

// MatMulBatch returns as[i] @ bs[i] computed in one pool dispatch.
func (e *Session[E]) MatMulBatch(as, bs []*tensor.Dense[E]) []*tensor.Dense[E] {
	outs := make([]*tensor.Dense[E], len(as))
	for i := range as {
		outs[i] = e.pool.Get(as[i].Rows(), bs[i].Cols())
	}
	tensor.MatMulBatchInto(as, bs, outs)
	return outs
}

// MatMulTransBBatch returns as[i] @ bs[i]^T in one pool dispatch.
func (e *Session[E]) MatMulTransBBatch(as, bs []*tensor.Dense[E]) []*tensor.Dense[E] {
	outs := make([]*tensor.Dense[E], len(as))
	for i := range as {
		outs[i] = e.pool.GetUninit(as[i].Rows(), bs[i].Rows())
	}
	tensor.MatMulTransBBatchInto(as, bs, outs)
	return outs
}

// LinearInt8 returns x @ w_dequant + bias for int8-quantized weights:
// dynamic per-row activation quantization, int32 accumulation, and
// dequantization fused into the bias add (see tensor.MatMulInt8Into).
// The int8 kernel takes float32 activations only — there is no
// float64×int8 tier — so a float64 session panics here.
func (e *Session[E]) LinearInt8(x *tensor.Dense[E], w *tensor.Int8Matrix, bias *tensor.Dense[E]) *tensor.Dense[E] {
	x32, ok := any(x).(*tensor.F32)
	if !ok {
		panic("ag: LinearInt8 takes float32 activations; int8 weights serve only the f32 session")
	}
	out := e.pool.GetUninit(x.Rows(), w.Out)
	need := x.Rows() * x.Cols()
	if cap(e.qscratch) < need {
		e.qscratch = make([]int8, need)
	}
	tensor.MatMulInt8Into(x32, w, any(bias).(*tensor.F32), any(out).(*tensor.F32), e.qscratch[:need])
	return out
}

// ReLU applies max(0, x) elementwise.
func (e *Session[E]) ReLU(a *tensor.Dense[E]) *tensor.Dense[E] {
	out := e.pool.GetUninit(a.Shape...)
	tensor.ReLUInto(a, out)
	return out
}

// GELU applies the tanh-approximation GELU elementwise.
func (e *Session[E]) GELU(a *tensor.Dense[E]) *tensor.Dense[E] {
	out := e.pool.GetUninit(a.Shape...)
	tensor.GELUInto(a, out)
	return out
}

// Tanh applies tanh elementwise.
func (e *Session[E]) Tanh(a *tensor.Dense[E]) *tensor.Dense[E] {
	out := e.pool.GetUninit(a.Shape...)
	tensor.TanhInto(a, out)
	return out
}

// Sigmoid applies the logistic function elementwise.
func (e *Session[E]) Sigmoid(a *tensor.Dense[E]) *tensor.Dense[E] {
	out := e.pool.GetUninit(a.Shape...)
	tensor.SigmoidInto(a, out)
	return out
}

// SoftmaxRows applies softmax to each row.
func (e *Session[E]) SoftmaxRows(a *tensor.Dense[E]) *tensor.Dense[E] {
	out := e.pool.GetUninit(a.Shape...)
	tensor.SoftmaxRowsInto(a, out)
	return out
}

// LogSoftmaxRows applies log-softmax to each row.
func (e *Session[E]) LogSoftmaxRows(a *tensor.Dense[E]) *tensor.Dense[E] {
	out := e.pool.GetUninit(a.Shape...)
	tensor.LogSoftmaxRowsInto(a, out)
	return out
}

// LayerNormRows normalizes each row and applies gain/bias.
func (e *Session[E]) LayerNormRows(a, gamma, beta *tensor.Dense[E], eps float64) *tensor.Dense[E] {
	out := e.pool.GetUninit(a.Shape...)
	tensor.LayerNormRowsInto(a, gamma, beta, eps, out)
	return out
}

// ConcatRows stacks matrices with equal column counts vertically.
func (e *Session[E]) ConcatRows(vs ...*tensor.Dense[E]) *tensor.Dense[E] {
	if len(vs) == 0 {
		panic("ag: Session.ConcatRows of nothing")
	}
	n := vs[0].Cols()
	total := 0
	for _, v := range vs {
		if v.Cols() != n {
			panic("ag: Session.ConcatRows column mismatch")
		}
		total += v.Rows()
	}
	out := e.pool.GetUninit(total, n)
	r := 0
	for _, v := range vs {
		copy(out.Data[r*n:], v.Data)
		r += v.Rows()
	}
	return out
}

// ConcatCols stacks matrices with equal row counts horizontally.
func (e *Session[E]) ConcatCols(vs ...*tensor.Dense[E]) *tensor.Dense[E] {
	if len(vs) == 0 {
		panic("ag: Session.ConcatCols of nothing")
	}
	m := vs[0].Rows()
	total := 0
	for _, v := range vs {
		if v.Rows() != m {
			panic("ag: Session.ConcatCols row mismatch")
		}
		total += v.Cols()
	}
	out := e.pool.GetUninit(m, total)
	off := 0
	for _, v := range vs {
		c := v.Cols()
		for i := 0; i < m; i++ {
			copy(out.Row(i)[off:off+c], v.Row(i))
		}
		off += c
	}
	return out
}

// SliceCols returns a copy of columns [from, to) of a (copied because
// column slices are not contiguous).
func (e *Session[E]) SliceCols(a *tensor.Dense[E], from, to int) *tensor.Dense[E] {
	m, n := a.Rows(), a.Cols()
	if from < 0 || to > n || from > to {
		panic(fmt.Sprintf("ag: Session.SliceCols [%d,%d) of %d cols", from, to, n))
	}
	out := e.pool.GetUninit(m, to-from)
	for i := 0; i < m; i++ {
		copy(out.Row(i), a.Row(i)[from:to])
	}
	return out
}

// Gather returns the rows of w selected by idx, in order.
func (e *Session[E]) Gather(w *tensor.Dense[E], idx []int) *tensor.Dense[E] {
	n := w.Cols()
	out := e.pool.GetUninit(len(idx), n)
	for i, ix := range idx {
		copy(out.Row(i), w.Row(ix))
	}
	return out
}
