// The no-grad (F) module: one lowered featurizer over element type E.
//
// Lowering keeps only the serving surface of each Enc_i — the CLS
// token, the token projection, and the transformer — and drops the
// single-table pre-training Head, which never runs at serve time. The
// raw FilterToken features stay float64 (they are exact featurization
// outputs, cheap, and shared by every tier) and are rounded to E at the
// projection input. At float64 the lowered featurizer is a view over
// the trained encoders (see nn.LowerLinear), so EncodeTableInfer is
// bitwise identical to EncodeTable's forward.
package featurize

import (
	"fmt"
	"sort"

	"mtmlf/internal/ag"
	"mtmlf/internal/nn"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/tensor"
)

// LoweredTableEncoder is a lowered Enc_i.
type LoweredTableEncoder[E tensor.Float] struct {
	Proj *nn.LoweredLinear[E]
	CLS  *tensor.Dense[E]
	Enc  *nn.LoweredEncoder[E]
}

// Bytes returns the resident weight bytes of the lowered encoder.
func (e *LoweredTableEncoder[E]) Bytes() int {
	return e.Proj.Bytes() + e.CLS.Bytes() + e.Enc.Bytes()
}

// Lowered pairs a source featurizer (for the raw FilterToken pipeline
// and the statistics) with lowered per-table encoders.
type Lowered[E tensor.Float] struct {
	Src  *Featurizer
	Encs map[string]*LoweredTableEncoder[E]
}

// Lower builds the lowered featurizer of f at element type E and
// precision p.
func Lower[E tensor.Float](f *Featurizer, p nn.Precision) *Lowered[E] {
	lf := &Lowered[E]{Src: f, Encs: make(map[string]*LoweredTableEncoder[E], len(f.Encs))}
	for _, name := range f.tableNames() {
		enc := f.Encs[name]
		lf.Encs[name] = &LoweredTableEncoder[E]{
			Proj: nn.LowerLinear[E](enc.Proj, p),
			CLS:  tensor.As[E](enc.CLS.T),
			Enc:  nn.LowerEncoder[E](enc.Enc, p),
		}
	}
	return lf
}

// view returns f's float64 view, built on first use and shared after.
// It holds no weights of its own, so it tracks every in-place update
// of f's parameters.
func (f *Featurizer) view() *Lowered[float64] {
	f.f64Once.Do(func() { f.f64 = Lower[float64](f, nn.PrecisionF64) })
	return f.f64
}

// EncodeTableInfer runs f's float64 view of Enc_i on the no-grad path
// (see Lowered.EncodeTableInfer).
func (f *Featurizer) EncodeTableInfer(e *ag.Eval, table string, filters []sqldb.Filter) *tensor.Tensor {
	return f.view().EncodeTableInfer(e, table, filters)
}

// tableNames returns the encoder map's keys in sorted order (map
// iteration is forbidden in determinism-critical packages).
func (f *Featurizer) tableNames() []string {
	names := make([]string, 0, len(f.Encs))
	for name := range f.Encs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// EncodeTableInfer runs Enc_i over the filters applying to one table
// and returns E(f(T_i)) as a [1, Dim] row owned by e — the no-grad
// form of Featurizer.EncodeTable.
func (f *Lowered[E]) EncodeTableInfer(e *ag.Session[E], table string, filters []sqldb.Filter) *tensor.Dense[E] {
	enc, ok := f.Encs[table]
	if !ok {
		panic(fmt.Sprintf("featurize: unknown table %q", table))
	}
	seq := enc.CLS
	if len(filters) > 0 {
		raw := e.Get(len(filters), f.Src.Cfg.TokenWidth())
		for i, flt := range filters {
			row := raw.Row(i)
			for j, v := range f.Src.FilterToken(flt) {
				row[j] = E(v)
			}
		}
		seq = e.ConcatRows(enc.CLS, enc.Proj.Infer(e, raw))
	}
	out := enc.Enc.Infer(e, seq, nil)
	return e.RowsView(out, 0, 1)
}

// Bytes returns the resident weight bytes of all lowered encoders.
func (f *Lowered[E]) Bytes() int {
	n := 0
	for _, name := range f.Src.tableNames() {
		n += f.Encs[name].Bytes()
	}
	return n
}
