package nn

import (
	"math/rand"
	"sync"
	"testing"

	"mtmlf/internal/ag"
	"mtmlf/internal/tensor"
)

// TestDecoderForwardStepMatchesFullForward asserts KV-cached
// incremental decoding reproduces the full-prefix forward bitwise: at
// every step t, ForwardStep's output row equals row t of the full
// causal forward over the whole prefix.
func TestDecoderForwardStepMatchesFullForward(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const dim, heads, steps, memLen = 16, 2, 7, 4
	dec := NewDecoder(rng, dim, heads, 2)
	mem := tensor.Rand(rng, memLen, dim, 1)
	xs := tensor.Rand(rng, steps, dim, 1)
	view := LowerDecoder[float64](dec, PrecisionF64)

	e := ag.NewSession[float64]()
	defer e.Reset()
	cache := view.NewCache(mem, steps)
	for step := 0; step < steps; step++ {
		xNew := e.RowsView(xs, step, step+1)
		got := view.ForwardStep(e, xNew, cache)
		if cache.Len() != step+1 {
			t.Fatalf("cache length %d after step %d", cache.Len(), step)
		}
		// Full-prefix grad-tracked forward, masked.
		prefix := ag.Const(tensor.FromSlice(xs.Data[:(step+1)*dim], step+1, dim))
		full := dec.Forward(prefix, ag.Const(mem), CausalMask(step+1))
		wantRow := full.T.Row(step)
		gotRow := got.Row(0)
		for j := range wantRow {
			if wantRow[j] != gotRow[j] {
				t.Fatalf("step %d col %d: cached %v != full %v", step, j, gotRow[j], wantRow[j])
			}
		}
	}
}

// TestStepBeamsMatchesPerBeamSteps asserts the batched beam step is
// bitwise identical to stepping each hypothesis alone, and that Clone
// isolates forks.
func TestStepBeamsMatchesPerBeamSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const dim, heads, nb, memLen = 16, 2, 3, 4
	dec := LowerDecoder[float64](NewDecoder(rng, dim, heads, 1), PrecisionF64)
	mem := tensor.Rand(rng, memLen, dim, 1)

	e := ag.NewSession[float64]()
	defer e.Reset()

	// Shared first step, then fork into nb hypotheses with distinct
	// second inputs.
	x0 := tensor.Rand(rng, 1, dim, 1)
	base := dec.NewCache(mem, 4)
	_ = dec.ForwardStep(e, x0, base)

	x2 := tensor.Rand(rng, nb, dim, 1)
	caches := make([]*DecCache[float64], nb)
	for i := range caches {
		caches[i] = base.Clone()
	}
	batched := dec.StepBeams(e, x2, caches)

	for i := 0; i < nb; i++ {
		solo := base.Clone()
		out := dec.ForwardStep(e, e.RowsView(x2, i, i+1), solo)
		brow := batched.Row(i)
		srow := out.Row(0)
		for j := range srow {
			if brow[j] != srow[j] {
				t.Fatalf("beam %d col %d: batched %v != solo %v", i, j, brow[j], srow[j])
			}
		}
	}

	// base must be untouched by the forked steps.
	if base.Len() != 1 {
		t.Fatalf("base cache mutated: len %d", base.Len())
	}
}

// TestMaskAndPositionalCaches asserts the memoized builders return
// stable shared pointers and correct contents.
func TestMaskAndPositionalCaches(t *testing.T) {
	m1, m2 := CausalMask(9), CausalMask(9)
	if m1 != m2 {
		t.Fatal("CausalMask(9) not memoized")
	}
	if m1.At(0, 5) != -1e9 || m1.At(5, 0) != 0 || m1.At(5, 5) != 0 {
		t.Fatal("CausalMask contents wrong")
	}
	p1, p2 := SinusoidalPositions(12, 8), SinusoidalPositions(12, 8)
	if p1 != p2 {
		t.Fatal("SinusoidalPositions not memoized")
	}
	if !tensor.Equal(p1, sinusoidalPositions(12, 8), 0) {
		t.Fatal("memoized positions differ from direct computation")
	}

	rng := rand.New(rand.NewSource(24))
	tp := NewTreePositionalEncoder(rng, 6, 8)
	path := TreePath{0, 1, 1}
	f1 := tp.RawFeature(path)
	f2 := tp.RawFeature(path)
	if &f1[0] != &f2[0] {
		t.Fatal("tree RawFeature not memoized")
	}
	want := []float64{1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0}
	for i := range want {
		if f1[i] != want[i] {
			t.Fatalf("RawFeature[%d] = %v, want %v", i, f1[i], want[i])
		}
	}
}

// TestMaskCacheConcurrency hammers the memoized caches from many
// goroutines — the race detector (make race) is the real assertion;
// inference runs concurrently with the parallel trial fan-out, so
// these caches must be race-free.
func TestMaskCacheConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	tp := NewTreePositionalEncoder(rng, 8, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := 1 + (g+i)%7
				m := CausalMask(n)
				if m.Rows() != n {
					t.Errorf("CausalMask(%d) has %d rows", n, m.Rows())
					return
				}
				pe := SinusoidalPositions(n, 8)
				if pe.Rows() != n {
					t.Errorf("SinusoidalPositions(%d) has %d rows", n, pe.Rows())
					return
				}
				path := make(TreePath, (g+i)%5)
				for d := range path {
					path[d] = (g + i + d) % 2
				}
				if f := tp.RawFeature(path); len(f) != 16 {
					t.Errorf("RawFeature width %d", len(f))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
