package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phase counts the operations of one phase of a run: requests for
// serve-*, minibatches for train-*.
type phase struct {
	Name   string `json:"name"`
	Sent   int    `json:"sent"`
	OK     int    `json:"ok"`
	Failed int    `json:"failed"`
}

// provenance records what produced a result; compare refuses results
// from different machines or settings (checkComparable).
type provenance struct {
	Seed       int64          `json:"seed"`
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPU        string         `json:"cpu"`
	Settings   map[string]any `json:"settings"`
}

// result is one run of one workload. The result file (--out) holds
// all of it; stdout ends with the summary line the contract asks for.
type result struct {
	mu         sync.Mutex        // guards Mismatches
	Workload   string            `json:"workload"`
	Trace      bool              `json:"trace"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Phases     []phase           `json:"phases"`
	Mismatches []string          `json:"mismatches,omitempty"`
	// Info holds figures reported for reading but not gated: tail
	// percentiles too sensitive to CPU steal on a shared host, the
	// final training loss, generator lateness.
	Info map[string]float64 `json:"info,omitempty"`
	// StealFrac is the share of the host's CPU time stolen from this
	// machine while the run measured (from /proc/stat; 0 where absent).
	StealFrac  float64    `json:"cpu_steal_frac"`
	Provenance provenance `json:"provenance"`
}

func newResult(workload string, trace bool, prov provenance) *result {
	return &result{Workload: workload, Trace: trace, Metrics: map[string]metric{}, Provenance: prov}
}

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

func (r *result) info(name string, v float64) {
	if r.Info == nil {
		r.Info = map[string]float64{}
	}
	r.Info[name] = v
}

// addPhase appends a phase and counts it toward attempted/failed.
func (r *result) addPhase(p phase) {
	r.Phases = append(r.Phases, p)
	r.Attempted += p.Sent
	r.Failed += p.Failed
}

// mismatch records a failed output check; the run is then incorrect
// and the command exits non-zero.
func (r *result) mismatch(format string, args ...any) {
	const keep = 20
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.Mismatches) < keep {
		r.Mismatches = append(r.Mismatches, fmt.Sprintf(format, args...))
	}
}

func (r *result) finish() { r.Correct = r.Failed == 0 && len(r.Mismatches) == 0 }

// print writes the human report: provenance, per-phase counts, every
// metric by name with its unit, and any mismatches.
func (r *result) print() {
	prov, _ := json.Marshal(r.Provenance)
	fmt.Printf("workload %s (trace %v)\nprovenance %s\n", r.Workload, r.Trace, prov)
	for _, p := range r.Phases {
		fmt.Printf("phase %-12s sent %7d  ok %7d  failed %5d\n", p.Name, p.Sent, p.OK, p.Failed)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-26s %14.6g %s\n", n, m.Value, m.Unit)
	}
	infos := make([]string, 0, len(r.Info))
	for n := range r.Info {
		infos = append(infos, n)
	}
	sort.Strings(infos)
	for _, n := range infos {
		fmt.Printf("info %-21s %14.6g\n", n, r.Info[n])
	}
	fmt.Printf("cpu steal during the run: %.1f%%\n", 100*r.StealFrac)
	for _, m := range r.Mismatches {
		fmt.Printf("MISMATCH %s\n", m)
	}
}

// summaryLine is the last line of stdout: exactly correct, attempted,
// failed and metrics. JSON has no infinity, so a latency that a
// failure pushed to +Inf is written as the largest float64 (the run
// is already marked incorrect by the failure).
func (r *result) summaryLine() string {
	ms := make(map[string]metric, len(r.Metrics))
	for n, m := range r.Metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			m.Value = math.MaxFloat64
		}
		ms[n] = m
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		panic(err) // only finite floats and plain types remain
	}
	return string(b)
}

func collectProvenance(seed int64, st settings) provenance {
	return provenance{
		Seed:       seed,
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Settings: map[string]any{
			"seconds": st.Seconds, "scale": st.Scale,
			"train_queries": st.TrainQueries, "pool_size": st.PoolSize,
			"mix": st.mixString(), "draw": "uniform", "windows": windows,
			"phase_a_clients": st.Clients, "phase_b_rate_qps": st.RateQPS,
			"phase_b_max_conns": phaseBConns(st), "batch": st.Batch, "fixture_epochs": st.FixtureEpochs,
			"train_steps": st.trainSteps(), "prefix_steps": st.PrefixSteps,
			"setup_reps": st.SetupReps,
		},
	}
}

// gitCommit names the checked-out commit, or "unknown" when the
// working directory is not the top of a git checkout (the benchmark
// also runs from exported trees, which may sit inside another
// repository).
func gitCommit() string {
	if !exists(".git") {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTimes reads the aggregate CPU counters (user, nice, system,
// idle, iowait, irq, softirq, steal) from /proc/stat.
func cpuTimes() []float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	out := make([]float64, 8)
	for i := range out {
		fmt.Sscan(f[i+1], &out[i])
	}
	return out
}

// stealFrac is the stolen share of CPU time between two cpuTimes.
func stealFrac(a, b []float64) float64 {
	if a == nil || b == nil {
		return 0
	}
	total := 0.0
	for i := range a {
		total += b[i] - a[i]
	}
	if total <= 0 {
		return 0
	}
	return (b[7] - a[7]) / total
}

// resetPeakRSS returns freed heap to the OS and restarts this
// process's VmHWM from its current resident set (clear_refs 5), so
// that a later peakRSSMB("self") covers only the work after it and
// not set-up repeats, references or earlier workloads of the run.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("5")); err != nil {
		f.Close()
		return fmt.Errorf("reset VmHWM: %w", err)
	}
	return f.Close()
}

// peakRSSMB reads a process's high-water resident set (VmHWM).
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
