// Per-kernel roofline measurements for the reduced-precision tier:
// each entry records effective GFLOP/s and the bytes the kernel
// streams per op, per precision per size, so the BENCH trajectory
// shows where each kernel sits between the memory-bandwidth and
// compute ceilings — and how far the f32/int8 tiers move it.

package main

import (
	"fmt"
	"testing"

	"mtmlf/internal/benchjson"
	"mtmlf/internal/inferbench"
	"mtmlf/internal/nn"
	"mtmlf/internal/tensor"
)

// fill writes a deterministic, well-conditioned pattern (values in
// roughly [-1, 1], no denormals) so every precision multiplies the
// same magnitudes.
func fill[E tensor.Float](d []E) {
	s := uint64(0x9e3779b97f4a7c15)
	for i := range d {
		s = s*6364136223846793005 + 1442695040888963407
		d[i] = E(float64(int64(s>>33))/float64(1<<30) - 1)
	}
}

// rooflineMatMulSizes are the square matmul shapes measured per tier.
// 64 sits under the serial-dispatch threshold, 256 and 512 are the
// shapes the f32-vs-f64 acceptance speedups are read from.
var rooflineMatMulSizes = []int{64, 256, 512}

// addRoofline appends the per-kernel roofline section to the report:
// matmul across all three tiers, transposed-B matmul, and the
// row-wise epilogue kernels (bias add, softmax, layernorm, GELU) at
// f64 and f32. Every kernel is measured serially (w1) so the numbers
// are per-core kernel quality, not pool scaling; the matmul
// acceptance shapes are re-measured at the configured pool size (wN)
// to show the sharded ceiling.
func addRoofline(r *benchjson.Report) error {
	restore := tensor.Parallelism()
	defer tensor.SetParallelism(restore)

	measureMatMuls := func(workers int) {
		tensor.SetParallelism(workers)
		eff := tensor.Parallelism()
		if workers != 1 && eff == 1 {
			return // single-core: the wN pass would duplicate the w1 entries
		}
		wtag := fmt.Sprintf("w%d", eff)
		for _, n := range rooflineMatMulSizes {
			if workers != 1 && n < 256 {
				continue // below the parallel dispatch threshold anyway
			}
			flops := int64(2) * int64(n) * int64(n) * int64(n)

			_, b64, _ := measureMatMulTier[float64](r, "f64", wtag, n)
			a32, _, out32 := measureMatMulTier[float32](r, "f32", wtag, n)

			w8 := tensor.QuantizeLinear(b64)
			bias := tensor.NewDense[float32](1, n)
			qbuf := make([]int8, n*n)
			// int8 streams the quantized weights (1 B/element) plus f32
			// activations and output; the dynamic row quantization is
			// part of the measured op, as it is in serving.
			r.MeasureKernel(fmt.Sprintf("roofline/matmul/%d/int8/%s", n, wtag), "int8",
				flops, int64((1+4+4)*n*n), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						tensor.MatMulInt8Into(a32, w8, bias, out32, qbuf)
					}
				})
		}
	}

	measureMatMuls(1)
	if restore > 1 {
		measureMatMuls(restore)
	}
	tensor.SetParallelism(1)

	// Row-wise epilogue kernels at the serving activation shape, with
	// nominal flops/element for relative placement.
	const en = 256
	x64, x32 := newEpilogueOperands[float64](en), newEpilogueOperands[float32](en)
	for _, k := range []struct {
		name  string
		flops int64
	}{{"addbias", 1}, {"softmax", 5}, {"layernorm", 8}, {"gelu", 10}} {
		measureEpilogue(r, k.name, "f64", k.flops, x64)
		measureEpilogue(r, k.name, "f32", k.flops, x32)
	}

	// Resident model bytes per tier (capacity entries: DataBytesPerOp
	// is the replica size, no arithmetic measured). The model is the
	// shared inferbench serving configuration.
	m, _ := inferbench.Setup()
	r.Entries = append(r.Entries,
		benchjson.Entry{Name: "model_bytes/f64", Precision: "f64",
			DataBytesPerOp: int64(m.ParamBytes())},
		benchjson.Entry{Name: "model_bytes/f32", Precision: "f32",
			DataBytesPerOp: int64(m.Lower(nn.PrecisionF32).ParamBytes())},
		benchjson.Entry{Name: "model_bytes/int8", Precision: "int8",
			DataBytesPerOp: int64(m.Lower(nn.PrecisionInt8).ParamBytes())},
	)

	// The acceptance speedups: f32 matmul vs f64 at the serial
	// acceptance shapes.
	for _, n := range []int{256, 512} {
		if err := r.AddSpeedup(
			fmt.Sprintf("roofline/matmul/%d/f32_vs_f64", n),
			fmt.Sprintf("roofline/matmul/%d/f64/w1", n),
			fmt.Sprintf("roofline/matmul/%d/f32/w1", n),
		); err != nil {
			return err
		}
	}
	return nil
}

// measureMatMulTier measures the n×n matmul and transposed-B matmul at
// element type E and returns the operands (the int8 entry reuses them).
func measureMatMulTier[E tensor.Float](r *benchjson.Report, prec, wtag string, n int) (a, b, out *tensor.Dense[E]) {
	flops := int64(2) * int64(n) * int64(n) * int64(n)
	a, b, out = tensor.NewDense[E](n, n), tensor.NewDense[E](n, n), tensor.NewDense[E](n, n)
	fill(a.Data)
	fill(b.Data)
	streamed := int64(3 * a.Bytes())
	r.MeasureKernel(fmt.Sprintf("roofline/matmul/%d/%s/%s", n, prec, wtag), prec,
		flops, streamed, func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				clear(out.Data)
				tensor.MatMulInto(a, b, out)
			}
		})
	r.MeasureKernel(fmt.Sprintf("roofline/transb/%d/%s/%s", n, prec, wtag), prec,
		flops, streamed, func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				tensor.MatMulTransBInto(a, b, out)
			}
		})
	return a, b, out
}

// epilogueOperands holds one tier's operands for the row-wise kernels.
type epilogueOperands[E tensor.Float] struct {
	a, g, beta, out *tensor.Dense[E]
}

func newEpilogueOperands[E tensor.Float](n int) *epilogueOperands[E] {
	x := &epilogueOperands[E]{
		a:    tensor.NewDense[E](n, n),
		g:    tensor.NewDense[E](1, n),
		beta: tensor.NewDense[E](1, n),
		out:  tensor.NewDense[E](n, n),
	}
	fill(x.a.Data)
	fill(x.g.Data)
	return x
}

// measureEpilogue measures one row-wise kernel (flopsPerElem nominal
// flops per element, for relative placement) serially at E.
func measureEpilogue[E tensor.Float](r *benchjson.Report, kernel, prec string, flopsPerElem int64, x *epilogueOperands[E]) {
	var body func()
	switch kernel {
	case "addbias":
		body = func() { tensor.AddBiasInto(x.a, x.g, x.out) }
	case "softmax":
		body = func() { tensor.SoftmaxRowsInto(x.a, x.out) }
	case "layernorm":
		body = func() { tensor.LayerNormRowsInto(x.a, x.g, x.beta, 1e-5, x.out) }
	case "gelu":
		body = func() { tensor.GELUInto(x.a, x.out) }
	default:
		panic("roofline: unknown epilogue kernel " + kernel)
	}
	n := x.a.Rows()
	r.MeasureKernel(fmt.Sprintf("roofline/%s/%d/%s/w1", kernel, n, prec), prec,
		flopsPerElem*int64(n*n), int64(2*x.a.Bytes()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				body()
			}
		})
}
