// Command benchmark is the repository benchmark: it measures the
// model server (mtmlf-serve, as its own process) and the trainer
// (mtmlf.Model.TrainJointStream, single process and as a 2-rank
// loopback fleet) end to end, checks their outputs, and, in a
// separate traced run, breaks each operation down by layer.
//
// Run it through benchmark/run.sh, which builds mtmlf-serve and this
// command from source first:
//
//	bash benchmark/run.sh --workload serve-f64 --seed 1 --seconds 15 --trace 0 [--out result.json]
//	bash benchmark/run.sh --workload all --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh compare --base results/parent --head results/change
//
// Workloads (the why of each is in BENCHMARK.json):
//
//   - serve-f64, serve-int8: mtmlf-serve at -precision f64 / int8,
//     driven over HTTP with loadgen.DefaultMix traffic drawn uniformly
//     from the seed's held-out pool. Phase A is a closed loop of
//     settings.Clients clients and gives ops_per_s; phase B is a
//     Poisson open loop at settings.RateQPS and gives the latencies,
//     timed from each request's due time.
//   - train-single, train-fleet2: a fixed number of minibatches of
//     fine-tuning streamed from the seed's corpus, in one process with
//     all cores as workers, or as a 2-rank dist TCP fleet on loopback.
//
// Every end-to-end metric is defined on every workload, so results
// compare metric by metric: an operation is a request on serve-* and
// a training example (ops_per_s) or minibatch (lat_p50_ms) on
// train-*; card_qerr_p50 is the median q-error of the cardinality of
// every plan node of the held-out pool, as served or as estimated by
// the fine-tuned model. Throughput and lat_p50_ms are measured per
// window (settings.go: windows) and a run reports the better quartile
// of its windows (stats.go: fastFigure), so that spells in which the
// shared host takes CPU time away do not move them. Tail percentiles,
// the whole-phase median, the final training loss and generator
// lateness are reported under "info" in the result, ungated: on a
// shared host the tail follows CPU steal more than the program.
//
// The last line of stdout is a JSON object with exactly the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. A failed output
// check prints correct false and exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
)

// env is everything one workload run needs.
type env struct {
	workload string
	seed     int64
	trace    bool
	st       settings
	buildDir string
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "fixture":
			exitOn(fixtureMain(os.Args[2:]))
			return
		case "compare":
			ok, err := compareMain(os.Args[2:], os.Stdout)
			exitOn(err)
			if !ok {
				os.Exit(1)
			}
			return
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 15, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := fs.String("out", "", "also write the full result (with provenance) as JSON to this file")
	_ = fs.Parse(os.Args[1:])

	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		exitOn(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	} else if !isWorkload(*workload) {
		exitOn(fmt.Errorf("unknown --workload %q (want %s or all)", *workload, strings.Join(workloadNames, ", ")))
	}
	root, err := repoRoot()
	exitOn(err)
	var results []*result
	for _, name := range names {
		e := &env{workload: name, seed: *seed, trace: *trace == 1, st: defaultSettings(*seconds),
			buildDir: filepath.Join(root, ".bench_build")}
		res, err := e.run()
		exitOn(err)
		res.print()
		results = append(results, res)
	}
	if *out != "" {
		exitOn(writeResults(*out, results))
	}
	line, correct := summarize(results)
	fmt.Println(line)
	if !correct {
		os.Exit(1)
	}
}

// run executes one workload and returns its checked result.
func (e *env) run() (*result, error) {
	res := newResult(e.workload, e.trace, collectProvenance(e.seed, e.st))
	if e.trace {
		// A layer off this workload's path does no work and reads 0.
		for _, lm := range layerMetrics {
			res.set(lm.name, lm.unit, 0)
		}
	}
	var err error
	cpu0 := cpuTimes()
	if strings.HasPrefix(e.workload, "serve-") {
		err = runServe(e, res)
	} else {
		err = runTrain(e, res)
	}
	res.StealFrac = stealFrac(cpu0, cpuTimes())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.workload, err)
	}
	if e.trace {
		keepOnly(res, layerNames())
		printLayerTable(e.workload)
	} else {
		keepOnly(res, endToEndNames())
	}
	res.finish()
	return res, nil
}

// keepOnly drops metrics outside names: the traced run also computes
// end-to-end figures along the way, but reports only per-layer ones.
func keepOnly(res *result, names []string) {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	for n := range res.Metrics {
		if !want[n] {
			delete(res.Metrics, n)
		}
	}
}

// printLayerTable lists each per-layer metric with the end-to-end
// metric it should move and whether its layer is on this workload's
// path (off the path it reads 0).
func printLayerTable(workload string) {
	fmt.Printf("%-26s %-6s %-8s %s\n", "per-layer metric", "unit", "on path", "should move")
	for _, lm := range layerMetrics {
		on := "no"
		for _, w := range lm.on {
			if w == workload {
				on = "yes"
			}
		}
		fmt.Printf("%-26s %-6s %-8s %s\n", lm.name, lm.unit, on, lm.target)
	}
}

func layerNames() []string {
	out := make([]string, len(layerMetrics))
	for i, lm := range layerMetrics {
		out[i] = lm.name
	}
	return out
}

func endToEndNames() []string {
	out := make([]string, len(endToEnd))
	for i, m := range endToEnd {
		out[i] = m.name
	}
	return out
}

// summarize builds the final stdout line. For one workload it is that
// run's summary; for all, metrics are prefixed with the workload name.
func summarize(results []*result) (string, bool) {
	if len(results) == 1 {
		return results[0].summaryLine(), results[0].Correct
	}
	all := newResult("all", results[0].Trace, results[0].Provenance)
	all.Correct = true
	for _, r := range results {
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for n, m := range r.Metrics {
			all.Metrics[r.Workload+"/"+n] = m
		}
	}
	return all.summaryLine(), all.Correct
}

func isWorkload(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// repoRoot is the directory the benchmark runs from; it must hold the
// repository (run.sh changes to it before starting the benchmark).
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	if !exists(filepath.Join(wd, "go.mod")) || !exists(filepath.Join(wd, "BENCHMARK.json")) {
		return "", errors.New("run from the repository root (go.mod and BENCHMARK.json not found)")
	}
	return wd, nil
}

// writeTrace writes the traced run's spans next to the build outputs.
func (e *env) writeTrace(tr *tracer) error {
	dir := filepath.Join(e.buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", e.workload, e.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Printf("wrote %d spans to %s\n", len(tr.spans), path)
	return nil
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}
