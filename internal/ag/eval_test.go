package ag

import (
	"math/rand"
	"testing"

	"mtmlf/internal/tensor"
)

// randDense draws a uniform [m, n] matrix in [-scale, scale] rounded
// to E (the draws do not depend on E).
func randDense[E tensor.Float](rng *rand.Rand, m, n int, scale float64) *tensor.Dense[E] {
	return tensor.As[E](tensor.Rand(rng, m, n, scale))
}

// TestEvalOpsBitwiseMatchGradOps asserts every Eval op's output is
// bitwise identical (eps = 0) to the forward result of the
// corresponding grad-tracked op.
func TestEvalOpsBitwiseMatchGradOps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := tensor.Rand(rng, 7, 12, 2)
	b := tensor.Rand(rng, 7, 12, 2)
	w := tensor.Rand(rng, 12, 9, 1)
	k := tensor.Rand(rng, 5, 12, 1)
	bias := tensor.Rand(rng, 1, 12, 1)
	gamma := tensor.Rand(rng, 1, 12, 1)
	beta := tensor.Rand(rng, 1, 12, 1)

	e := NewSession[float64]()
	defer e.Reset()

	check := func(name string, got *tensor.Tensor, want *Value) {
		t.Helper()
		if !tensor.Equal(want.T, got, 0) {
			t.Fatalf("%s: Eval output diverges from grad-tracked forward", name)
		}
	}

	av, bv := Const(a), Const(b)
	check("Add", e.Add(a, b), Add(av, bv))
	check("Scale", e.Scale(a, -0.37), Scale(av, -0.37))
	check("AddBias", e.AddBias(a, bias), AddBias(av, Const(bias)))
	check("MatMul", e.MatMul(a, w), MatMul(av, Const(w)))
	check("MatMulTransB", e.MatMulTransB(a, k), MatMulTransB(av, Const(k)))
	check("ReLU", e.ReLU(a), ReLU(av))
	check("GELU", e.GELU(a), GELU(av))
	check("Tanh", e.Tanh(a), Tanh(av))
	check("Sigmoid", e.Sigmoid(a), Sigmoid(av))
	check("SoftmaxRows", e.SoftmaxRows(a), SoftmaxRows(av))
	check("LogSoftmaxRows", e.LogSoftmaxRows(a), LogSoftmaxRows(av))
	check("LayerNormRows", e.LayerNormRows(a, gamma, beta, 1e-5),
		LayerNormRows(av, Const(gamma), Const(beta), 1e-5))
	check("ConcatRows", e.ConcatRows(a, b), ConcatRows(av, bv))
	check("ConcatCols", e.ConcatCols(a, b), ConcatCols(av, bv))
	check("SliceCols", e.SliceCols(a, 3, 9), SliceCols(av, 3, 9))
	check("RowsView", e.RowsView(a, 2, 5), SliceRows(av, 2, 5))
	check("Gather", e.Gather(w, []int{3, 0, 3, 7}), Gather(Const(w), []int{3, 0, 3, 7}))

	batchA := []*tensor.Tensor{a, b}
	batchB := []*tensor.Tensor{w, w}
	gotB := e.MatMulBatch(batchA, batchB)
	wantB := MatMulBatch([]*Value{av, bv}, []*Value{Const(w), Const(w)})
	for i := range gotB {
		check("MatMulBatch", gotB[i], wantB[i])
	}
	gotTB := e.MatMulTransBBatch([]*tensor.Tensor{a, b}, []*tensor.Tensor{k, k})
	wantTB := MatMulTransBBatch([]*Value{av, bv}, []*Value{Const(k), Const(k)})
	for i := range gotTB {
		check("MatMulTransBBatch", gotTB[i], wantTB[i])
	}

	checkOpsMatchKernels[float64](t, 21)
}

// checkOpsMatchKernels asserts every Session[E] op is bitwise identical
// (eps = 0) to calling the underlying kernel directly — the pooled
// session adds ownership, not arithmetic.
func checkOpsMatchKernels[E tensor.Float](t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := randDense[E](rng, 7, 12, 2)
	b := randDense[E](rng, 7, 12, 2)
	w := randDense[E](rng, 12, 9, 1)
	k := randDense[E](rng, 5, 12, 1)
	bias := randDense[E](rng, 1, 12, 1)
	gamma := randDense[E](rng, 1, 12, 1)
	beta := randDense[E](rng, 1, 12, 1)

	e := NewSession[E]()
	defer e.Reset()

	check := func(name string, got, want *tensor.Dense[E]) {
		t.Helper()
		if !tensor.Equal(got, want, 0) {
			t.Fatalf("%s: session output diverges from direct kernel call", name)
		}
	}
	into := func(rows, cols int, f func(out *tensor.Dense[E])) *tensor.Dense[E] {
		out := tensor.NewDense[E](rows, cols)
		f(out)
		return out
	}
	elem := func(f func(out *tensor.Dense[E])) *tensor.Dense[E] { return into(7, 12, f) }
	mm := func(a, w *tensor.Dense[E]) *tensor.Dense[E] {
		return into(a.Rows(), w.Cols(), func(o *tensor.Dense[E]) { tensor.MatMulInto(a, w, o) })
	}
	mtb := func(a, k *tensor.Dense[E]) *tensor.Dense[E] {
		return into(a.Rows(), k.Rows(), func(o *tensor.Dense[E]) { tensor.MatMulTransBInto(a, k, o) })
	}

	check("Add", e.Add(a, b), elem(func(o *tensor.Dense[E]) { tensor.AddInto(a, b, o) }))
	check("Scale", e.Scale(a, -0.37), elem(func(o *tensor.Dense[E]) { tensor.ScaleInto(a, E(-0.37), o) }))
	check("AddBias", e.AddBias(a, bias), elem(func(o *tensor.Dense[E]) { tensor.AddBiasInto(a, bias, o) }))
	check("MatMul", e.MatMul(a, w), mm(a, w))
	check("MatMulTransB", e.MatMulTransB(a, k), mtb(a, k))
	check("ReLU", e.ReLU(a), elem(func(o *tensor.Dense[E]) { tensor.ReLUInto(a, o) }))
	check("GELU", e.GELU(a), elem(func(o *tensor.Dense[E]) { tensor.GELUInto(a, o) }))
	check("Tanh", e.Tanh(a), elem(func(o *tensor.Dense[E]) { tensor.TanhInto(a, o) }))
	check("Sigmoid", e.Sigmoid(a), elem(func(o *tensor.Dense[E]) { tensor.SigmoidInto(a, o) }))
	check("SoftmaxRows", e.SoftmaxRows(a), elem(func(o *tensor.Dense[E]) { tensor.SoftmaxRowsInto(a, o) }))
	check("LogSoftmaxRows", e.LogSoftmaxRows(a), elem(func(o *tensor.Dense[E]) { tensor.LogSoftmaxRowsInto(a, o) }))
	check("LayerNormRows", e.LayerNormRows(a, gamma, beta, 1e-5),
		elem(func(o *tensor.Dense[E]) { tensor.LayerNormRowsInto(a, gamma, beta, 1e-5, o) }))

	batchM := e.MatMulBatch([]*tensor.Dense[E]{a, b}, []*tensor.Dense[E]{w, w})
	check("MatMulBatch[0]", batchM[0], mm(a, w))
	check("MatMulBatch[1]", batchM[1], mm(b, w))
	batchT := e.MatMulTransBBatch([]*tensor.Dense[E]{a, b}, []*tensor.Dense[E]{k, k})
	check("MatMulTransBBatch[0]", batchT[0], mtb(a, k))
	check("MatMulTransBBatch[1]", batchT[1], mtb(b, k))
}

// TestEvalF32OpsMatchKernels runs the session-vs-kernel check at
// float32 (TestEvalOpsBitwiseMatchGradOps runs it at float64).
func TestEvalF32OpsMatchKernels(t *testing.T) { checkOpsMatchKernels[float32](t, 21) }

// checkStructuralOps exercises the copy/view ops of Session[E] against
// hand-built expectations.
func checkStructuralOps[E tensor.Float](t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(22))
	a, b := randDense[E](rng, 4, 6, 1), randDense[E](rng, 4, 6, 1)

	e := NewSession[E]()
	defer e.Reset()

	cr := e.ConcatRows(a, b)
	if cr.Rows() != 8 || cr.Cols() != 6 {
		t.Fatalf("ConcatRows shape %v", cr.Shape)
	}
	if cr.At(5, 2) != b.At(1, 2) {
		t.Fatal("ConcatRows content mismatch")
	}

	cc := e.ConcatCols(a, b)
	if cc.Rows() != 4 || cc.Cols() != 12 {
		t.Fatalf("ConcatCols shape %v", cc.Shape)
	}
	if cc.At(2, 9) != b.At(2, 3) {
		t.Fatal("ConcatCols content mismatch")
	}

	sc := e.SliceCols(a, 1, 4)
	if sc.Rows() != 4 || sc.Cols() != 3 {
		t.Fatalf("SliceCols shape %v", sc.Shape)
	}
	if sc.At(3, 0) != a.At(3, 1) {
		t.Fatal("SliceCols content mismatch")
	}

	rv := e.RowsView(a, 1, 3)
	if rv.Rows() != 2 || rv.Cols() != 6 {
		t.Fatalf("RowsView shape %v", rv.Shape)
	}
	if &rv.Data[0] != &a.Data[6] {
		t.Fatal("RowsView is not a zero-copy view")
	}

	seg := e.RowSeg(a, 2, 1, 4)
	if seg.Rows() != 1 || seg.Cols() != 3 || &seg.Data[0] != &a.Data[2*6+1] {
		t.Fatal("RowSeg is not a zero-copy [1, 3] view")
	}

	g := e.Gather(a, []int{2, 0, 2})
	if g.Rows() != 3 || g.At(0, 4) != a.At(2, 4) || g.At(1, 4) != a.At(0, 4) {
		t.Fatal("Gather content mismatch")
	}
}

// TestEvalF32StructuralOps runs the structural-op checks at both
// element types.
func TestEvalF32StructuralOps(t *testing.T) {
	checkStructuralOps[float32](t)
	checkStructuralOps[float64](t)
}

// TestEvalF32LinearInt8 checks the session-owned scratch path against a
// direct MatMulInt8Into call, bitwise, that the scratch is grown once
// and reused, and that a float64 session refuses int8 weights.
func TestEvalF32LinearInt8(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := randDense[float32](rng, 6, 24, 1)
	w := tensor.QuantizeLinear(tensor.Xavier(rng, 24, 10))
	bias := randDense[float32](rng, 1, 10, 1)

	e := NewSession[float32]()
	defer e.Reset()

	got := e.LinearInt8(x, w, bias)
	want := tensor.NewDense[float32](6, 10)
	tensor.MatMulInt8Into(x, w, bias, want, make([]int8, 6*24))
	if !tensor.Equal(got, want, 0) {
		t.Fatal("LinearInt8 diverges from direct MatMulInt8Into")
	}

	buf := &e.qscratch[0]
	e.Reset()
	_ = e.LinearInt8(x, w, bias)
	if &e.qscratch[0] != buf {
		t.Fatal("LinearInt8 scratch not reused across Reset")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("LinearInt8 on a float64 session did not panic")
		}
	}()
	e64 := NewSession[float64]()
	e64.LinearInt8(x.ToTensor(), w, bias.ToTensor())
}

// checkSteadyStateAllocationFree asserts a warm Session[E] runs a small
// forward chain without allocating; mid, if non-nil, is one more op
// spliced into the chain.
func checkSteadyStateAllocationFree[E tensor.Float](t *testing.T, seed int64, mid func(e *Session[E], h *tensor.Dense[E]) *tensor.Dense[E]) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := randDense[E](rng, 4, 16, 1)
	w := randDense[E](rng, 16, 16, 1)
	bias := randDense[E](rng, 1, 16, 1)
	e := NewSession[E]()
	chain := func() {
		h := e.MatMul(x, w)
		h = e.AddBias(h, bias)
		h = e.GELU(h)
		if mid != nil {
			h = mid(e, h)
		}
		h = e.SoftmaxRows(h)
		_ = e.RowsView(h, 0, 2)
		e.Reset()
	}
	chain() // warm the pool (and any scratch)
	if allocs := testing.AllocsPerRun(50, chain); allocs > 0 {
		t.Fatalf("warm session chain allocates %.1f times per run", allocs)
	}
}

func TestEvalSteadyStateAllocationFree(t *testing.T) {
	checkSteadyStateAllocationFree[float64](t, 12, nil)
}

// TestEvalF32SteadyStateAllocationFree includes an int8 linear in the
// chain.
func TestEvalF32SteadyStateAllocationFree(t *testing.T) {
	w8 := tensor.QuantizeLinear(tensor.Xavier(rand.New(rand.NewSource(24)), 16, 16))
	bias := tensor.NewDense[float32](1, 16)
	checkSteadyStateAllocationFree(t, 24, func(e *EvalF32, h *tensor.F32) *tensor.F32 {
		return e.LinearInt8(h, w8, bias)
	})
}

// TestNoGradReclaims checks the NoGrad wrapper hands the evaluator
// back warm: two successive sessions reuse the same buffers.
func TestNoGradReclaims(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := tensor.Rand(rng, 3, 8, 1)
	var first *tensor.Tensor
	NoGrad(func(e *Eval) { first = e.Scale(x, 2) })
	var second *tensor.Tensor
	var reused bool
	NoGrad(func(e *Eval) {
		second = e.Scale(x, 3)
		reused = &second.Data[0] == &first.Data[0]
	})
	if !reused {
		t.Skip("sync.Pool did not return the same evaluator (GC timing); nothing to assert")
	}
}

// checkReacquireWarm asserts E's process-wide free-list hands a
// released session back warm.
func checkReacquireWarm[E tensor.Float](t *testing.T, acquire func() *Session[E], release func(*Session[E])) {
	t.Helper()
	x := randDense[E](rand.New(rand.NewSource(25)), 3, 8, 1)
	e := acquire()
	first := e.Scale(x, 2)
	release(e)
	e2 := acquire()
	defer release(e2)
	second := e2.Scale(x, 3)
	if e2 == e && &second.Data[0] != &first.Data[0] {
		t.Fatal("reacquired session did not reuse its pooled buffer")
	}
}

// TestAcquireReleaseEvalF32 checks both tiers' free-lists, through the
// per-tier names and the generic pair.
func TestAcquireReleaseEvalF32(t *testing.T) {
	checkReacquireWarm(t, AcquireEvalF32, ReleaseEvalF32)
	checkReacquireWarm(t, AcquireEval, ReleaseEval)
	checkReacquireWarm(t, AcquireSession[float32], ReleaseSession[float32])
	checkReacquireWarm(t, AcquireSession[float64], ReleaseSession[float64])
}
