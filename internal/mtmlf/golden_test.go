package mtmlf

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mtmlf/internal/ag"
	"mtmlf/internal/nn"
	"mtmlf/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/tiers.golden from the current code")

// goldenPath pins every served number of every precision tier.
const goldenPath = "testdata/tiers.golden"

// hexBits renders floats as their IEEE-754 bit patterns, so the golden
// file compares bitwise.
func hexBits(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%016x", math.Float64bits(v))
	}
	return strings.Join(parts, " ")
}

// servedTiers renders, for every query and every tier, the per-node
// card and cost estimates, the served join order, and the log-prob of
// every returned beam — all as exact bits.
func servedTiers(m *Model, qs []*workload.LabeledQuery) []byte {
	var b bytes.Buffer
	lowered := []*LoweredModel{m.Lower(nn.PrecisionF32), m.Lower(nn.PrecisionInt8)}
	k := m.Shared.Cfg.BeamWidth
	for i, lq := range qs {
		fmt.Fprintf(&b, "q%02d f64 card %s\n", i, hexBits(m.EstimateNodeCards(lq)))
		fmt.Fprintf(&b, "q%02d f64 cost %s\n", i, hexBits(m.EstimateNodeCosts(lq)))
		fmt.Fprintf(&b, "q%02d f64 jo %s\n", i, strings.Join(m.InferJoinOrder(lq.Q, lq.Plan), ","))
		ev := ag.AcquireEval()
		rep := m.RepresentInfer(ev, lq.Q, lq.Plan)
		fmt.Fprintf(&b, "q%02d f64 beams %s\n", i, beamBits(m.Shared.JO.BeamSearchTensor(rep.Memory, lq.Q, k, true)))
		ag.ReleaseEval(ev)
		for _, lm := range lowered {
			p := lm.Precision
			fmt.Fprintf(&b, "q%02d %v card %s\n", i, p, hexBits(lm.EstimateNodeCards(lq)))
			fmt.Fprintf(&b, "q%02d %v cost %s\n", i, p, hexBits(lm.EstimateNodeCosts(lq)))
			fmt.Fprintf(&b, "q%02d %v jo %s\n", i, p, strings.Join(lm.InferJoinOrder(lq.Q, lq.Plan), ","))
			ev32 := ag.AcquireEvalF32()
			rep32 := lm.RepresentInfer(ev32, lq.Q, lq.Plan)
			mem := rep32.Memory.ToTensor()
			fmt.Fprintf(&b, "q%02d %v beams %s\n", i, p, beamBits(m.Shared.JO.BeamSearchTensor(mem, lq.Q, k, true)))
			ag.ReleaseEvalF32(ev32)
		}
	}
	return b.Bytes()
}

func beamBits(res []BeamSearchResult) string {
	lps := make([]float64, len(res))
	for i, r := range res {
		lps[i] = r.LogProb
	}
	return hexBits(lps)
}

// TestServedTiersGolden pins every number the three serving tiers
// produce — card and cost estimates, join orders, beam log-probs — on
// 40 generated queries of 2–6 tables, bit for bit. Regenerate with
// `go test ./internal/mtmlf -run TestServedTiersGolden -update` only
// when a change is meant to move served numbers.
func TestServedTiersGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; gc fuses x*y+z into FMA on %s, so the bits there differ", runtime.GOARCH)
	}
	db := tinyDB()
	m := NewModel(tinyConfig(), db, 71)
	gen := workload.NewGenerator(db, 72)
	cfg := workload.DefaultConfig()
	cfg.MinTables, cfg.MaxTables = 2, 6
	m.Feat.PretrainAll(gen, 10, 1, cfg)
	got := servedTiers(m, gen.Generate(40, cfg))

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got %s\nwant %s", goldenPath, i+1, g, w)
		}
	}
}
