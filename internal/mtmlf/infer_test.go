package mtmlf

import (
	"fmt"
	"testing"

	"mtmlf/internal/ag"
	"mtmlf/internal/tensor"
)

// TestBeamSearchCachedMatchesLegacy is the tentpole equivalence test:
// KV-cached incremental beam search must return the same beams with
// the same log-probs (eps = 0, bitwise) as the full-prefix recompute,
// at every beam width, constrained and unconstrained.
func TestBeamSearchCachedMatchesLegacy(t *testing.T) {
	m, qs := tinySetup(t, 41, 4)
	for _, k := range []int{1, 2, 5} {
		for _, constrained := range []bool{true, false} {
			t.Run(fmt.Sprintf("k=%d/constrained=%v", k, constrained), func(t *testing.T) {
				for _, lq := range qs {
					rep := m.Represent(lq.Q, lq.Plan)
					legacy := m.Shared.JO.BeamSearchLegacy(rep.Memory, lq.Q, k, constrained)
					cached := m.Shared.JO.BeamSearch(rep.Memory, lq.Q, k, constrained)
					if len(legacy) != len(cached) {
						t.Fatalf("beam count: legacy %d, cached %d", len(legacy), len(cached))
					}
					for i := range legacy {
						if legacy[i].LogProb != cached[i].LogProb {
							t.Fatalf("beam %d logprob: legacy %v, cached %v (diff %g)",
								i, legacy[i].LogProb, cached[i].LogProb,
								legacy[i].LogProb-cached[i].LogProb)
						}
						if legacy[i].Legal != cached[i].Legal {
							t.Fatalf("beam %d legality differs", i)
						}
						if len(legacy[i].Positions) != len(cached[i].Positions) {
							t.Fatalf("beam %d length differs", i)
						}
						for j := range legacy[i].Positions {
							if legacy[i].Positions[j] != cached[i].Positions[j] {
								t.Fatalf("beam %d position %d: legacy %d, cached %d",
									i, j, legacy[i].Positions[j], cached[i].Positions[j])
							}
						}
					}
				}
			})
		}
	}
}

// TestScoreSequenceFastMatchesGrad asserts the no-grad sequence scorer
// returns exactly the differentiable ScoreSequence value.
func TestScoreSequenceFastMatchesGrad(t *testing.T) {
	m, qs := tinySetup(t, 42, 3)
	for _, lq := range qs {
		rep := m.Represent(lq.Q, lq.Plan)
		for _, r := range m.Shared.JO.BeamSearch(rep.Memory, lq.Q, 3, false) {
			want := m.Shared.JO.ScoreSequence(rep.Memory, r.Positions).Item()
			got := m.Shared.JO.ScoreSequenceFast(rep.Memory.T, r.Positions)
			if want != got {
				t.Fatalf("seq %v: grad %v, fast %v (diff %g)", r.Positions, want, got, want-got)
			}
		}
	}
}

// TestRepresentInferMatchesGrad asserts the no-grad representation and
// both task heads are bitwise identical to the grad-tracked pipeline —
// encoder, decoder memory, and heads (the satellite no-grad coverage).
func TestRepresentInferMatchesGrad(t *testing.T) {
	m, qs := tinySetup(t, 43, 3)
	e := ag.NewSession[float64]()
	defer e.Reset()
	for _, lq := range qs {
		grad := m.Represent(lq.Q, lq.Plan)
		fast := m.RepresentInfer(e, lq.Q, lq.Plan)
		if !tensor.Equal(grad.S.T, fast.S, 0) {
			t.Fatal("S differs between grad and no-grad paths")
		}
		if !tensor.Equal(grad.Memory.T, fast.Memory, 0) {
			t.Fatal("Memory differs between grad and no-grad paths")
		}
		if !tensor.Equal(m.PredictLogCards(grad).T, m.PredictLogCardsInfer(e, fast), 0) {
			t.Fatal("card head differs between grad and no-grad paths")
		}
		if !tensor.Equal(m.PredictLogCosts(grad).T, m.PredictLogCostsInfer(e, fast), 0) {
			t.Fatal("cost head differs between grad and no-grad paths")
		}
		e.Reset()
	}
}

// TestInferJoinOrderMatchesGradPath asserts the one-call serving entry
// point returns the same order as the grad-path Represent+JoinOrderFor.
func TestInferJoinOrderMatchesGradPath(t *testing.T) {
	m, qs := tinySetup(t, 44, 4)
	for _, lq := range qs {
		rep := m.Represent(lq.Q, lq.Plan)
		want := m.JoinOrderFor(lq.Q, rep)
		got := m.InferJoinOrder(lq.Q, lq.Plan)
		if len(want) != len(got) {
			t.Fatalf("order length: grad %v, infer %v", want, got)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("order differs: grad %v, infer %v", want, got)
			}
		}
	}
}
