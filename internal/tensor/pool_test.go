package tensor

import (
	"math/rand"
	"testing"
)

// checkPoolReuse asserts a Pool[E] never hands out a live buffer
// twice, reuses freed buffers across shapes of the same size, zeroes
// them on Get, and counts live tensors.
func checkPoolReuse[E Float](t *testing.T) {
	t.Helper()
	p := NewPool[E]()
	a := p.Get(3, 4)
	if a.Rows() != 3 || a.Cols() != 4 {
		t.Fatalf("shape %v", a.Shape)
	}
	for i := range a.Data {
		a.Data[i] = E(i + 1)
	}
	b := p.Get(3, 4) // distinct buffer: a is still live
	if &a.Data[0] == &b.Data[0] {
		t.Fatal("pool handed out a live buffer twice")
	}
	if p.Live() != 2 {
		t.Fatalf("live = %d", p.Live())
	}
	p.Reset()
	c := p.Get(4, 3) // same element count, different shape: reuses a's buffer
	if &c.Data[0] != &a.Data[0] {
		t.Fatal("pool did not reuse the freed buffer")
	}
	if c.Rows() != 4 || c.Cols() != 3 {
		t.Fatalf("reused shape %v", c.Shape)
	}
	for i, v := range c.Data {
		if v != 0 {
			t.Fatalf("reused buffer not zeroed at %d: %g", i, float64(v))
		}
	}
	_ = p.GetUninit(4, 3)
	if p.Live() != 2 {
		t.Fatalf("live = %d after GetUninit, want 2", p.Live())
	}
}

func TestPoolReuseAndZeroing(t *testing.T) { checkPoolReuse[float64](t) }

// checkPoolSteadyStateAllocs asserts a warm Pool[E] Get/Reset cycle
// allocates nothing.
func checkPoolSteadyStateAllocs[E Float](t *testing.T) {
	t.Helper()
	p := NewPool[E]()
	warm := func() {
		for _, sh := range [][2]int{{4, 8}, {8, 8}, {1, 16}} {
			x := p.Get(sh[0], sh[1])
			x.Fill(1)
		}
		p.Reset()
	}
	warm()
	allocs := testing.AllocsPerRun(50, warm)
	if allocs > 0 {
		t.Fatalf("steady-state pool cycle allocates %.1f times", allocs)
	}
}

func TestPoolSteadyStateAllocs(t *testing.T) {
	checkPoolSteadyStateAllocs[float64](t)
	checkPoolSteadyStateAllocs[float32](t)
}

// TestIntoKernelsMatchAllocating asserts every Into kernel is bitwise
// identical (eps = 0) to its allocating twin on random inputs.
func TestIntoKernelsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := Rand(rng, 9, 13, 1)
	b := Rand(rng, 9, 13, 1)
	w := Rand(rng, 13, 5, 1)
	bt := Rand(rng, 4, 13, 1)
	bias := Rand(rng, 1, 13, 1)
	gamma := Rand(rng, 1, 13, 1)
	beta := Rand(rng, 1, 13, 1)

	check := func(name string, want, got *Tensor) {
		t.Helper()
		if !Equal(want, got, 0) {
			t.Fatalf("%s: Into kernel diverges from allocating kernel", name)
		}
	}

	out := New(9, 13)
	AddInto(a, b, out)
	check("AddInto", Add(a, b), out)

	ScaleInto(a, -1.75, out)
	check("ScaleInto", Scale(a, -1.75), out)

	AddBiasInto(a, bias, out)
	want := New(9, 13)
	for i := 0; i < 9; i++ {
		for j := 0; j < 13; j++ {
			want.Set(i, j, a.At(i, j)+bias.Data[j])
		}
	}
	check("AddBiasInto", want, out)

	SoftmaxRowsInto(a, out)
	check("SoftmaxRowsInto", SoftmaxRows(a), out)

	// Aliased destination.
	aCopy := a.Clone()
	SoftmaxRowsInto(aCopy, aCopy)
	check("SoftmaxRowsInto aliased", SoftmaxRows(a), aCopy)

	mm := New(9, 5)
	MatMulInto(a, w, mm)
	check("MatMulInto", MatMul(a, w), mm)

	mtb := New(9, 4)
	MatMulTransBInto(a, bt, mtb)
	check("MatMulTransBInto", MatMulTransB(a, bt), mtb)

	outs := []*Tensor{New(9, 5), New(9, 5)}
	MatMulBatchInto([]*Tensor{a, b}, []*Tensor{w, w}, outs)
	check("MatMulBatchInto[0]", MatMul(a, w), outs[0])
	check("MatMulBatchInto[1]", MatMul(b, w), outs[1])

	touts := []*Tensor{New(9, 4), New(9, 4)}
	MatMulTransBBatchInto([]*Tensor{a, b}, []*Tensor{bt, bt}, touts)
	check("MatMulTransBBatchInto[0]", MatMulTransB(a, bt), touts[0])
	check("MatMulTransBBatchInto[1]", MatMulTransB(b, bt), touts[1])

	_ = gamma
	_ = beta
}

// checkIntoAliasing asserts the normalization and activation Into
// kernels at E give the same result into a fresh destination and in
// place (their references are computed against the ag forward
// formulas in the ag package tests).
func checkIntoAliasing[E Float](t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(8))
	a := As[E](Rand(rng, 6, 10, 1))
	gamma := As[E](Rand(rng, 1, 10, 1))
	beta := As[E](Rand(rng, 1, 10, 1))

	out1 := NewDense[E](6, 10)
	LayerNormRowsInto(a, gamma, beta, 1e-5, out1)
	aliased := a.Clone()
	LayerNormRowsInto(aliased, gamma, beta, 1e-5, aliased)
	if !Equal(out1, aliased, 0) {
		t.Fatal("LayerNormRowsInto aliased result differs")
	}

	for _, k := range []struct {
		name string
		f    func(a, out *Dense[E])
	}{
		{"ReLUInto", ReLUInto[E]},
		{"GELUInto", GELUInto[E]},
		{"TanhInto", TanhInto[E]},
		{"SigmoidInto", SigmoidInto[E]},
	} {
		fresh := NewDense[E](6, 10)
		k.f(a, fresh)
		al := a.Clone()
		k.f(al, al)
		if !Equal(fresh, al, 0) {
			t.Fatalf("%s aliased result differs", k.name)
		}
	}
}

func TestLayerNormAndActIntoKernels(t *testing.T) {
	checkIntoAliasing[float64](t)
	checkIntoAliasing[float32](t)
}
