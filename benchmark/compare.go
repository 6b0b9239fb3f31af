package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mtmlf/internal/ckptio"
)

// writeResults saves runs as one JSON array, the input of compare.
func writeResults(path string, rs []*result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	return ckptio.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	})
}

// loadResults reads a result file, or every *.json result file in a
// directory.
func loadResults(path string) ([]*result, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var out []*result
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rs []*result
		if err := json.Unmarshal(b, &rs); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, rs...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no results in %s", path)
	}
	return out, nil
}

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// A sample is one run's value of one metric.
type sample struct {
	seed  int64
	value float64
}

// Verdicts, by the rules of choosing-metrics §6.5 and §8.
const (
	improved   = "improved"
	within     = "within bound"
	worse      = "worse"
	unresolved = "unresolved"
)

// minPairs is the fewest parent/change pairs a gain may rest on.
const minPairs = 10

// judge compares the change's samples of one metric with the parent's.
//   - improved: at least minPairs pairs (matched by seed), the change
//     wins at least nine tenths of them (ties count for neither), and
//     the medians differ in its favour by more than the parent's
//     interquartile range;
//   - worse: the change's median is worse than the parent's by more
//     than bound (a share of the parent's median);
//   - unresolved: otherwise, when the parent's own spread (IQR over
//     median) exceeds bound, unless every change run beats every
//     parent run;
//   - within bound: otherwise.
func judge(base, head []sample, lowerBetter bool, bound float64) string {
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	bv, hv := values(base), values(head)
	q1, mb, q3 := quartiles(bv)
	mh := median(hv)
	pairs, wins := 0, 0
	seeds := map[int64]float64{}
	for _, s := range base {
		seeds[s.seed] = s.value
	}
	for _, s := range head {
		if b, ok := seeds[s.seed]; ok {
			pairs++
			if better(s.value, b) {
				wins++
			}
		}
	}
	if pairs >= minPairs && 10*wins >= 9*pairs && better(mh, mb) && math.Abs(mh-mb) > q3-q1 {
		return improved
	}
	change := (mh - mb) / math.Abs(mb)
	if !lowerBetter {
		change = -change
	}
	if change > bound {
		return worse
	}
	if (q3-q1)/math.Abs(mb) > bound {
		all := true
		for _, h := range hv {
			for _, b := range bv {
				all = all && better(h, b)
			}
		}
		if !all {
			return unresolved
		}
	}
	return within
}

func values(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.value
	}
	return out
}

// compareMain is the "compare" subcommand. It prints, per workload
// and end-to-end metric, both sides' medians and quartiles and a
// verdict, and the failed share of operations per workload. It
// returns false on any worse verdict or a higher failed share, and an
// error when checkComparable refuses the two sets.
func compareMain(args []string, w io.Writer) (bool, error) {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	basePath := fs.String("base", "", "parent's results: a file written by --out, or a directory of them")
	headPath := fs.String("head", "", "change's results, likewise")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if *basePath == "" || *headPath == "" {
		return false, fmt.Errorf("compare needs --base and --head")
	}
	base, err := loadResults(*basePath)
	if err != nil {
		return false, err
	}
	head, err := loadResults(*headPath)
	if err != nil {
		return false, err
	}
	if err := checkComparable(base, head); err != nil {
		return false, err
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	type key struct{ workload, metric string }
	samples := func(rs []*result) (map[key][]sample, map[string][2]int) {
		m, counts := map[key][]sample{}, map[string][2]int{}
		for _, r := range rs {
			if r.Trace {
				continue
			}
			c := counts[r.Workload]
			counts[r.Workload] = [2]int{c[0] + r.Failed, c[1] + r.Attempted}
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				m[k] = append(m[k], sample{r.Provenance.Seed, v.Value})
			}
		}
		return m, counts
	}
	bs, bc := samples(base)
	hs, hc := samples(head)
	var loads []string
	for wl := range bc {
		if _, ok := hc[wl]; ok {
			loads = append(loads, wl)
		}
	}
	sort.Strings(loads)
	ok := true
	fmt.Fprintf(w, "%-13s %-14s %-34s %-34s %8s  %s\n", "workload", "metric", "base median [q1, q3] (n)", "head median [q1, q3] (n)", "change", "verdict")
	for _, wl := range loads {
		for _, m := range spec.EndToEnd {
			b, h := bs[key{wl, m.Name}], hs[key{wl, m.Name}]
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			v := judge(b, h, m.Better == "lower", m.Bound)
			ok = ok && v != worse
			bq1, bm, bq3 := quartiles(values(b))
			hq1, hm, hq3 := quartiles(values(h))
			fmt.Fprintf(w, "%-13s %-14s %-34s %-34s %+7.1f%%  %s (bound %g)\n", wl, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] (%d) %s", bm, bq1, bq3, len(b), m.Unit),
				fmt.Sprintf("%.4g [%.4g, %.4g] (%d) %s", hm, hq1, hq3, len(h), m.Unit),
				100*(hm-bm)/math.Abs(bm), v, m.Bound)
		}
		bf, hf := frac(bc[wl]), frac(hc[wl])
		verdict := "ok"
		if hf > bf {
			verdict, ok = "HIGHER", false
		}
		fmt.Fprintf(w, "%-13s %-14s %-34s %-34s %8s  %s\n", wl, "failed_frac",
			fmt.Sprintf("%.3g (%d of %d)", bf, bc[wl][0], bc[wl][1]),
			fmt.Sprintf("%.3g (%d of %d)", hf, hc[wl][0], hc[wl][1]), "", verdict)
	}
	if len(loads) == 0 {
		return false, fmt.Errorf("no workload has untraced results on both sides")
	}
	fmt.Fprintln(w, strings.Repeat("-", 40))
	if ok {
		fmt.Fprintln(w, "no metric worse beyond its bound and no higher failed share")
	} else {
		fmt.Fprintln(w, "REGRESSION: a metric is worse beyond its bound or more operations failed")
	}
	return ok, nil
}

// checkComparable refuses result sets that would compare unlike runs:
// untraced runs whose machine (nproc, GOMAXPROCS, CPU model) or
// settings differ, within a side or between the sides, and a workload
// run twice with one seed on one side, which would pair twice.
func checkComparable(base, head []*result) error {
	var first *result
	for _, side := range []struct {
		name string
		rs   []*result
	}{{"base", base}, {"head", head}} {
		seen := map[string]bool{}
		for _, r := range side.rs {
			if r.Trace {
				continue
			}
			run := fmt.Sprintf("%s seed %d", r.Workload, r.Provenance.Seed)
			if seen[run] {
				return fmt.Errorf("%s holds two runs of %s", side.name, run)
			}
			seen[run] = true
			if first == nil {
				first = r
				continue
			}
			if d := provenanceDiff(first.Provenance, r.Provenance); d != "" {
				return fmt.Errorf("%s %s differs from %s seed %d in %s; compare runs of one machine and one set of settings",
					side.name, run, first.Workload, first.Provenance.Seed, d)
			}
		}
	}
	return nil
}

// provenanceDiff names what differs between two runs' machine and
// settings, or returns "" when nothing does.
func provenanceDiff(a, b provenance) string {
	var diffs []string
	if a.NProc != b.NProc {
		diffs = append(diffs, fmt.Sprintf("nproc (%d vs %d)", a.NProc, b.NProc))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("GOMAXPROCS (%d vs %d)", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.CPU != b.CPU {
		diffs = append(diffs, fmt.Sprintf("CPU (%q vs %q)", a.CPU, b.CPU))
	}
	keys := map[string]bool{}
	for k := range a.Settings {
		keys[k] = true
	}
	for k := range b.Settings {
		keys[k] = true
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if fmt.Sprint(a.Settings[k]) != fmt.Sprint(b.Settings[k]) {
			diffs = append(diffs, fmt.Sprintf("setting %s (%v vs %v)", k, a.Settings[k], b.Settings[k]))
		}
	}
	return strings.Join(diffs, ", ")
}

func frac(c [2]int) float64 {
	if c[1] == 0 {
		return 0
	}
	return float64(c[0]) / float64(c[1])
}
