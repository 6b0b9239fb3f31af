package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"mtmlf/internal/serve"
)

func TestDueTimePercentilesCountFailuresAsMisses(t *testing.T) {
	start := time.Unix(0, 0)
	var due, done []time.Time
	var ok []bool
	// 100 requests due 10 ms apart; request i completes i/10 ms after
	// it was due, except that the last two fail.
	for i := 0; i < 100; i++ {
		d := start.Add(time.Duration(i) * 10 * time.Millisecond)
		due = append(due, d)
		done = append(done, d.Add(time.Duration(i)*100*time.Microsecond))
		ok = append(ok, i < 98)
	}
	lat := dueLatenciesMs(due, done, ok)
	if got := percentile(lat, 0.5); got != 4.9 {
		t.Errorf("p50 = %v ms, want 4.9 (the 50th fastest)", got)
	}
	if got := percentile(lat, 0.98); got != 9.7 {
		t.Errorf("p98 = %v ms, want 9.7 (the slowest success)", got)
	}
	if got := percentile(lat, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 = %v, want +Inf: the failures are the slowest two", got)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One connection, two arrivals due together: the second waits for
	// the first, and that wait is both its lateness and part of its
	// latency.
	sched := []arrival{{due: 0}, {due: 0}}
	outs := runOpenLoop(sched, 1, func(_, _ int, _ arrival, _ time.Time) bool {
		time.Sleep(20 * time.Millisecond)
		return true
	})
	lat, lateUs := openLoopLatencies(outs)
	if lat[1] < 39 {
		t.Errorf("second arrival's latency %v ms, want at least the two services (40 ms)", lat[1])
	}
	if lateUs < 9000 {
		t.Errorf("mean lateness %v us, want about half of the 20 ms the second arrival waited", lateUs)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		// statistics.quantiles(xs, n=4) and statistics.median(xs).
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 0.5, 7.25, 2.0, 9.0}, 1.25, 3.1, 8.125},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	} {
		q1, med, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(med-c.med) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestWindowedFiguresIgnoreSlowWindows(t *testing.T) {
	// 20 windows of 100 ms; requests complete every 10 ms, except that
	// in the first 10 windows (half the phase) they complete every
	// 20 ms, as when the host takes half the CPU away.
	var okAt []time.Duration
	for at := 10 * time.Millisecond; at <= 2*time.Second; {
		okAt = append(okAt, at-time.Microsecond)
		if at < time.Second {
			at += 20 * time.Millisecond
		} else {
			at += 10 * time.Millisecond
		}
	}
	rates := windowRates(okAt, 2*time.Second, 20)
	if got := fastFigure(rates, true); got != 100 {
		t.Errorf("ops figure %v/s over windows %v, want 100: the slowed half is ignored", got, rates)
	}
	// Latencies by due time: 1 ms in the second half, 5 ms in the first.
	var sched []arrival
	var lat []float64
	for i := 0; i < 200; i++ {
		sched = append(sched, arrival{due: time.Duration(i) * 10 * time.Millisecond})
		if i < 100 {
			lat = append(lat, 5)
		} else {
			lat = append(lat, 1)
		}
	}
	if got := fastFigure(windowMedians(sched, lat, 2*time.Second, 20), false); got != 1 {
		t.Errorf("latency figure %v ms, want 1: the slowed half is ignored", got)
	}
	// Minibatches: 40 of 10 ms, then 40 of 30 ms; batch 8.
	var stepMs []float64
	for i := 0; i < 80; i++ {
		if i < 40 {
			stepMs = append(stepMs, 10)
		} else {
			stepMs = append(stepMs, 30)
		}
	}
	stepRates, p50s := stepWindows(stepMs, 8, 20)
	if len(stepRates) != 20 || fastFigure(stepRates, true) != 800 || fastFigure(p50s, false) != 10 {
		t.Errorf("training figures %v ex/s, %v ms over windows %v, %v; want 800 and 10",
			fastFigure(stepRates, true), fastFigure(p50s, false), stepRates, p50s)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	// root [0,100] has children [10,40] and [30,60], which overlap, and
	// [80,120], which runs past the root; child [10,40] has its own
	// child [15,25].
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},
		{Name: "c", Parent: 0, Start: 80, End: 120},
		{Name: "a.child", Parent: 1, Start: 15, End: 25},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"root": 100 - 50 - 20, "a": 30 - 10, "b": 30, "c": 40, "a.child": 10}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, self[name], w)
		}
	}
}

func TestJudgeVerdicts(t *testing.T) {
	runs := func(vals ...float64) []sample {
		out := make([]sample, len(vals))
		for i, v := range vals {
			out[i] = sample{seed: int64(i), value: v}
		}
		return out
	}
	steady := runs(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, c := range []struct {
		name        string
		base, head  []sample
		lowerBetter bool
		want        string
	}{
		{"faster in every pair", steady, runs(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), true, improved},
		{"same", steady, runs(100, 100, 101, 99, 100, 101, 99, 100, 102, 98), true, within},
		{"slower beyond the bound", steady, runs(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), true, worse},
		{"throughput lower beyond the bound", steady, runs(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), false, worse},
		{"parent too noisy to tell", runs(60, 140, 80, 120, 100, 70, 130, 90, 110, 100), runs(95, 96, 94, 95, 97, 93, 95, 96, 94, 95), true, unresolved},
		{"noisy parent, change beats every run", runs(100, 140, 120, 130, 110), runs(90, 95, 92, 93, 91), true, within},
		{"better in every pair but too few pairs", steady[:5], runs(90, 91, 89, 90, 92), true, within},
	} {
		if got := judge(c.base, c.head, c.lowerBetter, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for i, w := range spec.Workloads {
		if i >= len(workloadNames) || w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark runs %v", i, w.Name, workloadNames)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the benchmark reports %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(layerMetrics))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: BENCHMARK.json %s %s, benchmark %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer %d: BENCHMARK.json %s %s, benchmark %s %s", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}

func TestCheckIsBitwise(t *testing.T) {
	ref := &reference{}
	x, y := 0.1, 0.2 // run-time sum: 0.30000000000000004
	ref.want[epCard] = [][]byte{encodeResponse(serve.EstimateJSON{Nodes: []float64{1.5, x + y}, Root: x + y})}
	same := []byte(`{"nodes":[1.50,0.30000000000000004],"root":0.30000000000000004,"plan":""}`)
	if !ref.check(epCard, 0, 200, same) {
		t.Error("a response with the same floats in other text was rejected")
	}
	off := []byte(`{"nodes":[1.5,0.3],"root":0.3,"plan":""}`)
	if ref.check(epCard, 0, 200, off) {
		t.Error("a response one ulp off the reference was accepted")
	}
	if ref.check(epCard, 0, 200, []byte(`{"nodes":[1.5,0.30000000000000004,7],"root":0.30000000000000004,"plan":""}`)) {
		t.Error("a response with an extra node was accepted")
	}
	if ref.check(epCard, 0, 429, ref.want[epCard][0]) {
		t.Error("a shed request was accepted")
	}
}

// TestShortRunAllWorkloads runs every workload briefly, untraced and
// traced, against a freshly built mtmlf-serve, so the output checks
// run on real responses and real trajectories.
func TestShortRunAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds mtmlf-serve and trains; skipped with -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bin", "mtmlf-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "mtmlf/cmd/mtmlf-serve").CombinedOutput(); err != nil {
		t.Fatalf("build mtmlf-serve: %v\n%s", err, out)
	}
	st := shortFixture(t, dir)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			e := &env{workload: w, seed: 3, trace: trace, st: st, buildDir: dir}
			res, err := e.run()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct %v, %d of %d failed, mismatches %v", w, trace, res.Correct, res.Failed, res.Attempted, res.Mismatches)
			}
			names := endToEndNames()
			if trace {
				names = layerNames()
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(names))
			}
			for _, n := range names {
				m, ok := res.Metrics[n]
				if !ok || (!trace && !(m.Value > 0)) {
					t.Errorf("%s trace=%v: metric %s = %v (present %v), want a positive value", w, trace, n, m.Value, ok)
				}
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(res.summaryLine()), &line); err != nil || len(line) != 4 {
				t.Errorf("%s: summary line %s is not the four-key object", w, res.summaryLine())
			}
		}
	}
}

// shortFixture returns settings shrunk for the self-tests and builds
// their seed-3 fixture in dir. It is built here, so the workloads find
// it cached instead of starting this test binary as the fixture child.
func shortFixture(t *testing.T, dir string) settings {
	st := defaultSettings(1)
	st.TrainQueries, st.PoolSize = 24, 16
	st.RateQPS, st.StepsPerSecond, st.PrefixSteps = 40, 6, 3
	st.SetupReps = 1
	if err := buildFixture(fixtureFor(dir, 3, st), 3, st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestTrainPeakRSSCoversOnlyTheJob checks that train-* peak_rss_mb
// does not carry over memory this process touched before the measured
// job: earlier workloads of --workload all, set-up repeats.
func TestTrainPeakRSSCoversOnlyTheJob(t *testing.T) {
	if testing.Short() {
		t.Skip("trains; skipped with -short")
	}
	dir := t.TempDir()
	st := shortFixture(t, dir)
	const ballastMB = 192
	ballast := make([]byte, ballastMB<<20)
	for i := 0; i < len(ballast); i += 4096 {
		ballast[i] = 1
	}
	before, err := peakRSSMB("self")
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(ballast)
	ballast = nil
	res, err := (&env{workload: trainSingle, seed: 3, st: st, buildDir: dir}).run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics["peak_rss_mb"].Value; got > before-ballastMB/2 {
		t.Errorf("train-single peak_rss_mb %.1f MB after a %d MB ballast took this process to %.1f MB: the ballast carried over",
			got, ballastMB, before)
	}
}

func TestCompareRefusesUnlikeRuns(t *testing.T) {
	run := func(workload string, seed int64, nproc int, seconds float64) *result {
		return &result{Workload: workload, Provenance: provenance{Seed: seed, NProc: nproc, GOMAXPROCS: 2, CPU: "x",
			Settings: map[string]any{"seconds": seconds, "pool_size": 256.0}}}
	}
	like := []*result{run(serveF64, 1, 2, 10), run(serveF64, 2, 2, 10), run(trainSingle, 1, 2, 10)}
	if err := checkComparable(like, like); err != nil {
		t.Errorf("like runs refused: %v", err)
	}
	for _, c := range []struct {
		name       string
		base, head []*result
	}{
		{"1 s against 10 s runs", like, []*result{run(serveF64, 1, 2, 1)}},
		{"other nproc within a side", []*result{run(serveF64, 1, 2, 10), run(serveF64, 2, 4, 10)}, like},
		{"a seed run twice", like, []*result{run(serveF64, 1, 2, 10), run(serveF64, 1, 2, 10)}},
	} {
		if err := checkComparable(c.base, c.head); err == nil {
			t.Errorf("%s: compared without complaint", c.name)
		}
	}
}
