// Matrix-multiply kernels: the hot path of the whole substrate.
//
// # DESIGN — parallelism model
//
// All three kernels (MatMul, MatMulTransA, MatMulTransB) share one
// structure: a cache-blocked inner kernel that computes a contiguous
// range of OUTPUT rows, and a dispatcher that either calls it once
// (serial fast path, for small problems) or shards the output rows
// across the package worker pool (internal/parallel). Output rows are
// disjoint between shards, so no synchronization is needed beyond the
// final join, and — because each output element is always accumulated
// in the same k-order no matter how the rows are sharded — the result
// is BITWISE IDENTICAL at every parallelism level, including the
// serial path. Tests assert this exactly (eps = 0).
//
// SetParallelism(n) bounds the worker count (default GOMAXPROCS); it
// is the single knob the -workers flags of every binary wire to.
// Problems below serialFlops multiply-adds never leave the calling
// goroutine: at transformer-layer sizes a goroutine handoff costs more
// than the arithmetic it saves.
//
// Cache blocking: the B operand is walked in kcBlock-row slabs
// (MatMul) or jcBlock-row slabs (MatMulTransB) sized to stay resident
// in L2 while every output row in the shard streams over them.
// Blocking only reorders which (i, l) pairs are visited when — each
// out[i,j] still accumulates its k products in ascending l order, the
// invariant the bitwise-equality guarantee rests on.
//
// # DESIGN — the one branch on element type
//
// The dispatchers are generic over E; only the row bodies differ per
// element type, and matMulRows/matMulTransBRows are where the kernels
// branch on E. The float64 bodies below skip zero entries of A (plan
// feature rows are sparse one-hots) and sum each TransB dot product in
// ascending order; the float32 bodies (matmul_f32.go) unroll 4x4 and
// reduce each dot product as (s0+s1)+(s2+s3). Both orders are fixed,
// so each tier stays bitwise deterministic. Merging the two would
// change one tier's served bits, so they stay separate by design.
package tensor

import (
	"fmt"

	"mtmlf/internal/parallel"
)

// SetParallelism sets the worker-pool size used by large tensor
// kernels (and everything else built on internal/parallel) and
// returns the previous value. n <= 0 resets to runtime.GOMAXPROCS.
func SetParallelism(n int) int { return parallel.SetWorkers(n) }

// Parallelism returns the current worker-pool size.
func Parallelism() int { return parallel.Workers() }

const (
	// serialFlops is the multiply-add count below which a matmul runs
	// entirely on the calling goroutine.
	serialFlops = 1 << 17
	// kcBlock is the k-dimension block: a kcBlock x n slab of B is
	// reused across every output row of a shard before moving on.
	kcBlock = 128
	// jcBlock bounds the B-row slab of MatMulTransB (jcBlock rows of
	// length k) so repeated dot products hit cache.
	jcBlock = 64
)

// rowGrain returns the minimum output rows per shard so that each
// spawned chunk carries at least ~serialFlops of work.
func rowGrain(flopsPerRow int) int {
	if flopsPerRow <= 0 {
		return 1
	}
	g := serialFlops / flopsPerRow
	if g < 1 {
		g = 1
	}
	return g
}

// MatMul returns a @ b for matrices a [m,k] and b [k,n].
func MatMul(a, b *Tensor) *Tensor {
	a.mustMatrix()
	b.mustMatrix()
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dim mismatch %v @ %v", a.Shape, b.Shape))
	}
	out := New(m, n)
	matMulInto(a, b, out)
	return out
}

// matMulInto dispatches out += a @ b (shapes already checked) serially
// or sharded by output row.
func matMulInto[E Float](a, b, out *Dense[E]) {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	if m*k*n < serialFlops {
		matMulRows(a.Data, b.Data, out.Data, k, n, 0, m)
		return
	}
	parallel.For(m, rowGrain(k*n), func(i0, i1 int) {
		matMulRows(a.Data, b.Data, out.Data, k, n, i0, i1)
	})
}

// matMulRows computes output rows [i0, i1) of a @ b with the row body
// of E's tier (see the package DESIGN note above).
func matMulRows[E Float](a, b, out []E, k, n, i0, i1 int) {
	switch a := any(a).(type) {
	case []float64:
		matMulRows64(a, any(b).([]float64), any(out).([]float64), k, n, i0, i1)
	case []float32:
		matMulRows32(a, any(b).([]float32), any(out).([]float32), k, n, i0, i1)
	}
}

// matMulRows64 computes output rows [i0, i1) of a @ b. The k loop is
// blocked so the active B slab stays cache-resident; within a block
// the (i, l, j) order matches the classic kernel, streaming both B
// and out rows sequentially. Zero entries of A are skipped — plan
// feature rows are sparse one-hots, so this pays off well beyond its
// cost on dense inputs.
func matMulRows64(a, b, out []float64, k, n, i0, i1 int) {
	for l0 := 0; l0 < k; l0 += kcBlock {
		l1 := l0 + kcBlock
		if l1 > k {
			l1 = k
		}
		for i := i0; i < i1; i++ {
			arow := a[i*k : (i+1)*k]
			orow := out[i*n : (i+1)*n]
			for l := l0; l < l1; l++ {
				av := arow[l]
				if av == 0 {
					continue
				}
				brow := b[l*n : (l+1)*n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	}
}

// MatMulTransB returns a @ b^T for a [m,k], b [n,k]. It avoids
// materializing the transpose, which the attention kernels rely on.
func MatMulTransB(a, b *Tensor) *Tensor {
	a.mustMatrix()
	b.mustMatrix()
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dim mismatch %v @ %v^T", a.Shape, b.Shape))
	}
	out := New(m, n)
	matMulTransBInto(a, b, out)
	return out
}

// matMulTransBInto dispatches out = a @ b^T (shapes already checked)
// serially or sharded by output row.
func matMulTransBInto[E Float](a, b, out *Dense[E]) {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	if m*k*n < serialFlops {
		matMulTransBRows(a.Data, b.Data, out.Data, k, n, 0, m)
		return
	}
	parallel.For(m, rowGrain(k*n), func(i0, i1 int) {
		matMulTransBRows(a.Data, b.Data, out.Data, k, n, i0, i1)
	})
}

// matMulTransBRows computes output rows [i0, i1) of a @ b^T with the
// row body of E's tier.
func matMulTransBRows[E Float](a, b, out []E, k, n, i0, i1 int) {
	switch a := any(a).(type) {
	case []float64:
		matMulTransBRows64(a, any(b).([]float64), any(out).([]float64), k, n, i0, i1)
	case []float32:
		matMulTransBRows32(a, any(b).([]float32), any(out).([]float32), k, n, i0, i1)
	}
}

// matMulTransBRows64 computes output rows [i0, i1) of a @ b^T as dot
// products, visiting B in jcBlock-row slabs so each slab is reused
// across all rows of the shard while hot.
func matMulTransBRows64(a, b, out []float64, k, n, i0, i1 int) {
	for j0 := 0; j0 < n; j0 += jcBlock {
		j1 := j0 + jcBlock
		if j1 > n {
			j1 = n
		}
		for i := i0; i < i1; i++ {
			arow := a[i*k : (i+1)*k]
			orow := out[i*n : (i+1)*n]
			for j := j0; j < j1; j++ {
				brow := b[j*k : (j+1)*k]
				var s float64
				for l, av := range arow {
					s += av * brow[l]
				}
				orow[j] = s
			}
		}
	}
}

// MatMulTransA returns a^T @ b for a [k,m], b [k,n].
func MatMulTransA(a, b *Tensor) *Tensor {
	a.mustMatrix()
	b.mustMatrix()
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dim mismatch %v^T @ %v", a.Shape, b.Shape))
	}
	out := New(m, n)
	if m*k*n < serialFlops {
		matMulTransARows(a.Data, b.Data, out.Data, k, m, n, 0, m)
		return out
	}
	parallel.For(m, rowGrain(k*n), func(i0, i1 int) {
		matMulTransARows(a.Data, b.Data, out.Data, k, m, n, i0, i1)
	})
	return out
}

// matMulTransARows computes output rows [i0, i1) of a^T @ b, i.e. the
// rows indexed by columns i of a. The l (row of a and b) loop stays
// outermost so both inputs stream sequentially; out rows for the shard
// are revisited per l, which stays cheap because shards are sized by
// rowGrain. Gradient matrices are often sparse, hence the zero skip.
func matMulTransARows(a, b, out []float64, k, m, n, i0, i1 int) {
	for l := 0; l < k; l++ {
		arow := a[l*m : (l+1)*m]
		brow := b[l*n : (l+1)*n]
		for i := i0; i < i1; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := out[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatMulBatch computes as[i] @ bs[i] for every pair, fanning the batch
// out over the worker pool. It exists so callers with many small
// independent products — per-head attention, per-token projections —
// can use the pool even when each single product is below the
// parallel threshold. Results are identical to calling MatMul in a
// loop.
func MatMulBatch(as, bs []*Tensor) []*Tensor {
	if len(as) != len(bs) {
		panic(fmt.Sprintf("tensor: MatMulBatch length mismatch %d vs %d", len(as), len(bs)))
	}
	out := make([]*Tensor, len(as))
	parallel.For(len(as), 1, func(s, e int) {
		for i := s; i < e; i++ {
			out[i] = MatMul(as[i], bs[i])
		}
	})
	return out
}

// MatMulTransBBatch computes as[i] @ bs[i]^T for every pair on the
// worker pool; see MatMulBatch.
func MatMulTransBBatch(as, bs []*Tensor) []*Tensor {
	if len(as) != len(bs) {
		panic(fmt.Sprintf("tensor: MatMulTransBBatch length mismatch %d vs %d", len(as), len(bs)))
	}
	out := make([]*Tensor, len(as))
	parallel.For(len(as), 1, func(s, e int) {
		for i := s; i < e; i++ {
			out[i] = MatMulTransB(as[i], bs[i])
		}
	})
	return out
}
