// The no-grad forward of the model, one implementation generic over
// the element type E (DESIGN.md §9).
//
// Lowered mirrors the I→F→S→T dataflow of Represent and the task heads
// on an ag.Session[E], without building an autodiff graph and drawing
// every intermediate from the session's pool. One lowering pass builds
// every tier:
//
//   - Model.F64 is the float64 view. Its layers point at the trained
//     weight tensors themselves (nothing is copied), so it serves
//     numbers bitwise identical to the grad-tracked pipeline (eps = 0
//     tests) and tracks training's in-place weight updates.
//   - Model.Lower(PrecisionF32 / PrecisionInt8) is a reduced-precision
//     replica (LoweredModel = Lowered[float32]) with f32 or int8-weight
//     kernels for the featurizer, serializer, Trans_Share and the
//     card/cost heads, rebuilt from the model on load/reload.
//
// The Trans_JO decoder decodes on its float64 view in every tier, on
// purpose: beam search threads KV state through the decoder, argmax
// join orders are the one output calibration demands be *identical*
// (not merely close) to the reference, and the decoder is ~a quarter
// of the parameters — so a float32 replica up-converts its tiny
// [m, Dim] memory once per query and decodes at full precision, while
// the float64 view hands its memory over without a copy. The
// resident-byte win is documented and tested: an int8 replica (weights
// int8, decoder f64) is well under half the f64 model.
package mtmlf

import (
	"fmt"
	"math"

	"mtmlf/internal/ag"
	"mtmlf/internal/featurize"
	"mtmlf/internal/nn"
	"mtmlf/internal/plan"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/tensor"
	"mtmlf/internal/workload"
)

// Lowered is the no-grad forward of a Model at element type E. It
// references its source Model (statistics, raw featurization) and
// holds no state beyond the lowered layers.
type Lowered[E tensor.Float] struct {
	Precision nn.Precision
	Src       *Model
	// Lowered (F.iii) serializer + (S) + card/cost (T) modules.
	NodeProj *nn.LoweredLinear[E]
	TreePos  *nn.LoweredTreePositionalEncoder[E]
	JoinEmb  *nn.LoweredEmbedding[E]
	Share    *nn.LoweredEncoder[E]
	CardHead *nn.LoweredMLP[E]
	CostHead *nn.LoweredMLP[E]
	// Lowered per-table featurizer encoders.
	Feat *featurize.Lowered[E]

	// jo is Trans_JO's float64 view, shared by every tier.
	jo *decoderView
	// shared is the Shared the layers were lowered from (F64's
	// staleness check).
	shared *Shared
}

// LoweredModel is the reduced-precision (f32 or int8-weight) replica.
type LoweredModel = Lowered[float32]

// lower is the one lowering pass: it builds m's no-grad forward at
// element type E and precision p.
func lower[E tensor.Float](m *Model, p nn.Precision) *Lowered[E] {
	s := m.Shared
	return &Lowered[E]{
		Precision: p,
		Src:       m,
		NodeProj:  nn.LowerLinear[E](s.NodeProj, p),
		TreePos:   nn.LowerTreePositionalEncoder[E](s.TreePos, p),
		JoinEmb:   nn.LowerEmbedding[E](s.JoinEmb),
		Share:     nn.LowerEncoder[E](s.Share, p),
		CardHead:  nn.LowerMLP[E](s.CardHead, p),
		CostHead:  nn.LowerMLP[E](s.CostHead, p),
		Feat:      featurize.Lower[E](m.Feat, p),
		jo:        s.JO.view(),
		shared:    s,
	}
}

// Lower builds a reduced-precision serving replica of m. p must be
// PrecisionF32 or PrecisionInt8; the f64 tier serves from F64.
func (m *Model) Lower(p nn.Precision) *LoweredModel {
	if p == nn.PrecisionF64 {
		panic("mtmlf: Lower(PrecisionF64) — serve the float64 view, Model.F64")
	}
	return lower[float32](m, p)
}

// F64 returns m's float64 view, built on first use and reused after;
// it is rebuilt if m.Shared or m.Feat is replaced.
func (m *Model) F64() *Lowered[float64] {
	if v := m.f64.Load(); v != nil && v.shared == m.Shared && v.Feat.Src == m.Feat {
		return v
	}
	v := lower[float64](m, nn.PrecisionF64)
	m.f64.Store(v)
	return v
}

// InferRep is the no-grad counterpart of Representation: tensors owned
// by the session that produced them (valid until its Reset).
type InferRep[E tensor.Float] struct {
	// S holds the shared representation, one row per plan node in
	// post-order.
	S *tensor.Dense[E]
	// Memory holds the leaf rows of S in q.Tables order.
	Memory *tensor.Dense[E]
	// Tables is the memory row order (== q.Tables).
	Tables []string
}

// RepresentInfer runs the I→F→S dataflow of Model.Represent on the
// no-grad path. The returned tensors live in e's pool: they are valid
// until e.Reset() (or its release) and must be cloned to outlive it.
func (lm *Lowered[E]) RepresentInfer(e *ag.Session[E], q *sqldb.Query, p *plan.Node) *InferRep[E] {
	cfg := lm.Src.Shared.Cfg
	db := lm.Src.Feat.DB
	if len(db.Tables) > cfg.MaxTables {
		panic(fmt.Sprintf("mtmlf: database has %d tables, model supports %d", len(db.Tables), cfg.MaxTables))
	}
	nodes := p.Nodes()
	paths := p.Paths()

	fixedW := cfg.MaxTables + plan.NumScanOps + plan.NumJoinOps + 2
	rows := make([]*tensor.Dense[E], len(nodes))
	leafRow := map[string]int{}
	for i, n := range nodes {
		fixed := e.Get(1, fixedW)
		for _, t := range n.Tables() {
			idx := db.TableIndex(t)
			if idx < 0 {
				panic(fmt.Sprintf("mtmlf: plan references unknown table %q", t))
			}
			fixed.Data[idx] = 1
		}
		estCard := lm.Src.Feat.Stats.EstimateSubplanCard(n.Tables(), q)
		fixed.Data[fixedW-1] = E(math.Log(estCard+1) / 20)
		var embPart *tensor.Dense[E]
		if n.IsLeaf() {
			fixed.Data[cfg.MaxTables+int(n.Scan)] = 1
			embPart = lm.Feat.EncodeTableInfer(e, n.Table, q.FiltersFor(n.Table))
			leafRow[n.Table] = i
		} else {
			fixed.Data[cfg.MaxTables+plan.NumScanOps+int(n.Join)] = 1
			fixed.Data[fixedW-2] = 1 // isJoin flag
			embPart = lm.JoinEmb.Infer(e, []int{int(n.Join)})
		}
		rows[i] = e.ConcatCols(fixed, embPart)
	}
	raw := e.ConcatRows(rows...)
	x := lm.NodeProj.Infer(e, raw)

	tp := make([]nn.TreePath, len(paths))
	for i, p := range paths {
		tp[i] = nn.TreePath(p)
	}
	x = e.Add(x, lm.TreePos.Infer(e, tp))

	S := lm.Share.Infer(e, x, nil)

	mem := e.Get(len(q.Tables), cfg.Dim)
	for i, t := range q.Tables {
		ri, ok := leafRow[t]
		if !ok {
			panic(fmt.Sprintf("mtmlf: query table %q missing from plan", t))
		}
		copy(mem.Row(i), S.Row(ri))
	}
	return &InferRep[E]{S: S, Memory: mem, Tables: append([]string{}, q.Tables...)}
}

// PredictLogCardsInfer returns the per-node log-cardinality
// predictions.
func (lm *Lowered[E]) PredictLogCardsInfer(e *ag.Session[E], rep *InferRep[E]) *tensor.Dense[E] {
	return lm.CardHead.Infer(e, rep.S)
}

// PredictLogCostsInfer returns the per-node log-cost predictions.
func (lm *Lowered[E]) PredictLogCostsInfer(e *ag.Session[E], rep *InferRep[E]) *tensor.Dense[E] {
	return lm.CostHead.Infer(e, rep.S)
}

// EstimateNodeCards returns per-node cardinality estimates
// (exponentiated, clamped to >= 1).
func (lm *Lowered[E]) EstimateNodeCards(lq *workload.LabeledQuery) []float64 {
	e := ag.AcquireSession[E]()
	defer ag.ReleaseSession(e)
	rep := lm.RepresentInfer(e, lq.Q, lq.Plan)
	return ExpClamp(lm.PredictLogCardsInfer(e, rep).Data)
}

// EstimateNodeCosts returns per-node cost estimates.
func (lm *Lowered[E]) EstimateNodeCosts(lq *workload.LabeledQuery) []float64 {
	e := ag.AcquireSession[E]()
	defer ag.ReleaseSession(e)
	rep := lm.RepresentInfer(e, lq.Q, lq.Plan)
	return ExpClamp(lm.PredictLogCostsInfer(e, rep).Data)
}

// EstimateRoot returns the root cardinality and cost estimates in one
// forward pass.
func (lm *Lowered[E]) EstimateRoot(lq *workload.LabeledQuery) (card, costv float64) {
	e := ag.AcquireSession[E]()
	defer ag.ReleaseSession(e)
	rep := lm.RepresentInfer(e, lq.Q, lq.Plan)
	cards := ExpClamp(lm.PredictLogCardsInfer(e, rep).Data)
	costs := ExpClamp(lm.PredictLogCostsInfer(e, rep).Data)
	return cards[len(cards)-1], costs[len(costs)-1]
}

// JoinOrderBeams runs the KV-cached constrained beam search over rep's
// memory on Trans_JO's float64 view (the memory is handed over as is
// at float64 and widened once otherwise).
func (lm *Lowered[E]) JoinOrderBeams(q *sqldb.Query, rep *InferRep[E]) []BeamSearchResult {
	return lm.jo.beamSearch(rep.Memory.ToTensor(), q, lm.Src.Shared.Cfg.BeamWidth, true)
}

// InferJoinOrder predicts the join order end to end: one no-grad
// representation, then KV-cached constrained beam search. It returns
// the same order as Represent + JoinOrderFor.
func (lm *Lowered[E]) InferJoinOrder(q *sqldb.Query, p *plan.Node) []string {
	e := ag.AcquireSession[E]()
	defer ag.ReleaseSession(e)
	rep := lm.RepresentInfer(e, q, p)
	best, ok := BestBeam(lm.JoinOrderBeams(q, rep))
	if !ok {
		return nil
	}
	return best.OrderTables(rep.Tables)
}

// ExpClamp maps log-space head outputs to float64 estimates:
// exponentiated with the exponent clamped at 40 (an untrained model
// cannot overflow) and floored at 1. Exported for the serving layer,
// whose fused micro-batch path must clamp exactly like the serial
// estimators.
func ExpClamp[E tensor.Float](logs []E) []float64 {
	out := make([]float64, len(logs))
	for i, v := range logs {
		x := float64(v)
		if x > 40 {
			x = 40
		}
		e := math.Exp(x)
		if e < 1 {
			e = 1
		}
		out[i] = e
	}
	return out
}

// ExpClamp32 is ExpClamp over float32 head outputs.
func ExpClamp32(logs []float32) []float64 { return ExpClamp(logs) }

// ParamBytes returns the resident parameter bytes the lowered forward
// reads: the lowered weights plus the float64 Trans_JO decoder every
// tier shares with the source model.
func (lm *Lowered[E]) ParamBytes() int {
	n := lm.NodeProj.Bytes() + lm.TreePos.Bytes() + lm.JoinEmb.Bytes() +
		lm.Share.Bytes() + lm.CardHead.Bytes() + lm.CostHead.Bytes() + lm.Feat.Bytes()
	for _, p := range lm.Src.Shared.JO.Params() {
		n += 8 * p.T.Size()
	}
	return n
}

// ParamBytes returns the resident parameter bytes of the float64
// model (8 bytes per scalar) — the baseline the lowered replicas are
// sized against.
func (m *Model) ParamBytes() int {
	n := 0
	for _, p := range m.Params() {
		n += 8 * p.T.Size()
	}
	return n
}
