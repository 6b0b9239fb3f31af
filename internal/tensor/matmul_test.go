package tensor

import (
	"math/rand"
	"sync"
	"testing"
)

// refMatMul is the straightforward (i, l, j) kernel the seed shipped
// with — the reference the blocked/unrolled/parallel kernels of both
// tiers must match bitwise (identical per-element accumulation order).
func refMatMul[E Float](a, b *Dense[E]) *Dense[E] {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	out := NewDense[E](m, n)
	for i := 0; i < m; i++ {
		for l := 0; l < k; l++ {
			av := a.Data[i*k+l]
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += av * b.Data[l*n+j]
			}
		}
	}
	return out
}

func refMatMulTransB(a, b *Tensor) *Tensor {
	return refMatMul(a, Transpose(b))
}

func refMatMulTransA(a, b *Tensor) *Tensor {
	return refMatMul(Transpose(a), b)
}

// shapes covers the edge cases: empty, scalar-ish, ragged, prime
// dimensions straddling the block sizes, tall/wide extremes, and
// sizes large enough to cross the parallel threshold.
var shapes = []struct{ m, k, n int }{
	{0, 3, 4}, {3, 0, 4}, {1, 1, 1}, {2, 3, 1}, {1, 7, 5},
	{3, 5, 7}, {13, 17, 11}, {64, 64, 64}, {127, 129, 63},
	{1, 300, 1}, {300, 1, 300}, {200, 70, 3},
	{130, 140, 150}, {256, 64, 128},
}

func randPair(rng *rand.Rand, m, k, n int) (*Tensor, *Tensor) {
	return RandNorm(rng, m, k, 1), RandNorm(rng, k, n, 1)
}

// randDense draws an N(0, 1) [m, n] matrix rounded to E.
func randDense[E Float](rng *rand.Rand, m, n int) *Dense[E] {
	return As[E](RandNorm(rng, m, n, 1))
}

// atParallelism runs f with the worker pool at n, restoring the
// default afterwards.
func atParallelism[E Float](n int, f func() *Dense[E]) *Dense[E] {
	SetParallelism(n)
	defer SetParallelism(0)
	return f()
}

// checkMatMulBitwise asserts the E matmul kernel is bitwise identical
// serial vs sharded, and to the unblocked reference, on every shape.
func checkMatMulBitwise[E Float](t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, sh := range shapes {
		a, b := randDense[E](rng, sh.m, sh.k), randDense[E](rng, sh.k, sh.n)
		mm := func() *Dense[E] {
			out := NewDense[E](sh.m, sh.n)
			MatMulInto(a, b, out)
			return out
		}
		serial, par := atParallelism(1, mm), atParallelism(8, mm)
		if !Equal(serial, par, 0) {
			t.Fatalf("[%dx%d @ %dx%d] parallel result differs from serial", sh.m, sh.k, sh.k, sh.n)
		}
		if !Equal(serial, refMatMul(a, b), 0) {
			t.Fatalf("[%dx%d @ %dx%d] blocked kernel differs from reference", sh.m, sh.k, sh.k, sh.n)
		}
	}
}

// checkMatMulTransBBitwise asserts the E transposed-B kernel is
// bitwise identical serial vs sharded on every shape; ref, when
// non-nil, is a reference it must also match exactly.
func checkMatMulTransBBitwise[E Float](t *testing.T, seed int64, ref func(a, b *Dense[E]) *Dense[E]) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, sh := range shapes {
		a, b := randDense[E](rng, sh.m, sh.k), randDense[E](rng, sh.n, sh.k)
		mm := func() *Dense[E] {
			out := NewDense[E](sh.m, sh.n)
			MatMulTransBInto(a, b, out)
			return out
		}
		serial, par := atParallelism(1, mm), atParallelism(8, mm)
		if !Equal(serial, par, 0) {
			t.Fatalf("[%dx%d @ (%dx%d)^T] parallel result differs from serial", sh.m, sh.k, sh.n, sh.k)
		}
		if ref != nil && !Equal(serial, ref(a, b), 0) {
			t.Fatalf("[%dx%d @ (%dx%d)^T] kernel differs from reference", sh.m, sh.k, sh.n, sh.k)
		}
	}
}

func TestMatMulParallelMatchesSerialBitwise(t *testing.T) {
	checkMatMulBitwise[float64](t, 1)
	// The allocating training kernel is the same dispatch.
	rng := rand.New(rand.NewSource(1))
	a, b := randPair(rng, 130, 140, 150)
	if !Equal(MatMul(a, b), refMatMul(a, b), 0) {
		t.Fatal("MatMul differs from reference")
	}
}

func TestMatMulTransBParallelMatchesSerialBitwise(t *testing.T) {
	// The f64 dot product sums in ascending l like the reference, so
	// this too is exact (the f32 body's fixed tree is not).
	checkMatMulTransBBitwise(t, 2, refMatMulTransB)
	rng := rand.New(rand.NewSource(2))
	a, b := RandNorm(rng, 130, 140, 1), RandNorm(rng, 150, 140, 1)
	if !Equal(MatMulTransB(a, b), refMatMulTransB(a, b), 0) {
		t.Fatal("MatMulTransB differs from reference")
	}
}

func TestMatMulTransAParallelMatchesSerialBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sh := range shapes {
		a := RandNorm(rng, sh.k, sh.m, 1)
		b := RandNorm(rng, sh.k, sh.n, 1)
		SetParallelism(1)
		serial := MatMulTransA(a, b)
		SetParallelism(8)
		par := MatMulTransA(a, b)
		SetParallelism(0)
		if !Equal(serial, par, 0) {
			t.Fatalf("[(%dx%d)^T @ %dx%d] parallel result differs from serial", sh.k, sh.m, sh.k, sh.n)
		}
		if !Equal(serial, refMatMulTransA(a, b), 0) {
			t.Fatalf("[(%dx%d)^T @ %dx%d] kernel differs from reference", sh.k, sh.m, sh.k, sh.n)
		}
	}
}

func TestMatMulBatchMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	defer SetParallelism(SetParallelism(4))
	var as, bs []*Tensor
	for i := 0; i < 9; i++ {
		a, b := randPair(rng, 5+i, 8, 7)
		as = append(as, a)
		bs = append(bs, b)
	}
	got := MatMulBatch(as, bs)
	for i := range as {
		if !Equal(got[i], MatMul(as[i], bs[i]), 0) {
			t.Fatalf("batch element %d differs", i)
		}
	}
	bts := make([]*Tensor, len(bs))
	for i, b := range bs {
		bts[i] = Transpose(b)
	}
	gotTB := MatMulTransBBatch(as, bts)
	for i := range as {
		if !Equal(gotTB[i], MatMulTransB(as[i], bts[i]), 0) {
			t.Fatalf("transB batch element %d differs", i)
		}
	}
}

// TestMatMulConcurrentCallers exercises the kernels from many
// goroutines at once (the data-parallel training pattern) so the race
// detector can see any shared-state mistakes in the pool.
func TestMatMulConcurrentCallers(t *testing.T) {
	defer SetParallelism(SetParallelism(4))
	rng := rand.New(rand.NewSource(5))
	a, b := randPair(rng, 130, 140, 150)
	want := MatMul(a, b)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if !Equal(MatMul(a, b), want, 0) {
					t.Error("concurrent MatMul result differs")
					return
				}
			}
		}()
	}
	wg.Wait()
}
