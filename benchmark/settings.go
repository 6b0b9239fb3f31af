package main

import (
	"fmt"
	"time"

	"mtmlf/internal/loadgen"
)

// Workload names, in the order --workload all runs them.
const (
	serveF64    = "serve-f64"
	serveInt8   = "serve-int8"
	trainSingle = "train-single"
	trainFleet2 = "train-fleet2"
)

var workloadNames = []string{serveF64, serveInt8, trainSingle, trainFleet2}

// settings fixes every knob of a run except the seed. defaultSettings
// is the benchmark; the self-tests shrink it.
type settings struct {
	// Seconds is the measured time of one run. serve-* split it
	// between phase A and phase B; train-* size their fixed example
	// count from it (StepsPerSecond). Each phase and each training
	// run is cut into `windows` windows for the time metrics.
	Seconds float64
	// Scale is the synthetic IMDB scale (mtmlf-serve -scale).
	Scale float64
	// TrainQueries and PoolSize split the seed's labeled corpus: the
	// pool is held out and is what serve-* send; the training split
	// trains the served checkpoint and is what train-* stream.
	TrainQueries int
	PoolSize     int
	// Mix, Clients and RateQPS shape serving traffic: endpoint
	// weights, phase A closed-loop clients, phase B Poisson arrival
	// rate. Queries are drawn uniformly from the pool, so that a run's
	// work is the whole pool's average and not that of the few queries
	// a skewed draw would repeat: under a Zipf-1.2 draw a quarter of
	// the requests asked one query, and throughput moved up to 20%
	// from seed to seed with the size of the few most popular.
	Mix     loadgen.Mix
	Clients int
	RateQPS float64
	// Batch is the training minibatch size.
	Batch int
	// FixtureEpochs is how many epochs over the training split train
	// the served checkpoint.
	FixtureEpochs int
	// StepsPerSecond sets the fixed minibatch count of a train-* run
	// to StepsPerSecond*Seconds, so every run trains the same examples
	// and train loss and q-error are comparable across commits.
	StepsPerSecond float64
	// PrefixSteps is how many minibatches of loss trajectory are
	// compared bit for bit against the in-process reference.
	PrefixSteps int
	// SetupReps is how many times set-up is repeated per run; setup_s
	// is their median.
	SetupReps int
}

// int8PhaseARPS is serve-int8's median ops_per_s (phase A, OK req/s
// with 2 closed-loop clients, uniform draw, 15 s runs) at commit
// 3ae40db, seeds 71-75, on a 2-vCPU Intel Xeon VM at GOMAXPROCS 2:
// the capacity of the slower serving tier. It stays a constant rather
// than each run's own phase A rate, so that phase B offers every
// compared commit the same load.
const int8PhaseARPS = 847

// phaseBLoad is phase B's offered load as a share of that capacity. At
// a quarter, an arrival mostly finds the engine idle (an M/M/1 queue at
// utilisation 0.25 waits a third of a service time on average), so
// lat_p50_ms measures one call's latency rather than queueing, and
// both tiers stay well below saturation. Each run reports the load it
// actually offered, RateQPS over its own phase A rate, as info
// phase_b_load, which shows the load level on other hardware.
const phaseBLoad = 0.25

func defaultSettings(seconds float64) settings {
	return settings{
		Seconds:        seconds,
		Scale:          0.06,
		TrainQueries:   384,
		PoolSize:       256,
		Mix:            loadgen.DefaultMix(),
		Clients:        2,
		RateQPS:        int8PhaseARPS * phaseBLoad,
		Batch:          8,
		FixtureEpochs:  3,
		StepsPerSecond: 30,
		PrefixSteps:    6,
		SetupReps:      31,
	}
}

// windows is how many windows each serving phase and each training
// run is cut into; a run reports fastFigure of the per-window values.
const windows = 20

// phaseDuration is the length of each serving phase.
func (s settings) phaseDuration() time.Duration {
	return time.Duration(s.Seconds / 2 * float64(time.Second))
}

// trainSteps is the fixed minibatch count of a train-* run.
func (s settings) trainSteps() int {
	return max(s.PrefixSteps, int(s.StepsPerSecond*s.Seconds+0.5))
}

func (s settings) mixString() string {
	return fmt.Sprintf("card=%d,cost=%d,joinorder=%d", s.Mix.Card, s.Mix.Cost, s.Mix.JoinOrder)
}

// A layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric it should move and the workloads on whose
// blocking path the layer runs. On other workloads the layer does no
// work and the metric reads 0.
type layerMetric struct {
	name, unit, target string
	on                 []string
}

var (
	serveLoads = []string{serveF64, serveInt8}
	trainLoads = []string{trainSingle, trainFleet2}
	allLoads   = workloadNames
)

// layerMetrics is the per-layer metric table. Keep it in step with
// per_layer in BENCHMARK.json (a self-test checks the names).
var layerMetrics = []layerMetric{
	{"serve.decode_us", "us", "ops_per_s, lat_p50_ms", serveLoads},
	{"serve.encode_us", "us", "ops_per_s, lat_p50_ms", serveLoads},
	{"serve.engine_us", "us", "lat_p50_ms, info lat_p99_ms", serveLoads},
	{"serve.queue_wait_us", "us", "info lat_p99_ms", serveLoads},
	{"serve.batch_size", "count", "lat_p50_ms", serveLoads},
	{"serve.fused_frac", "frac", "lat_p50_ms", serveLoads},
	{"serve.allocs_per_req", "count", "peak_rss_mb, info lat_p99_ms", serveLoads},
	{"tensor.pool_miss_per_req", "count", "peak_rss_mb, info lat_p99_ms", serveLoads},
	{"featurize.encode_us", "us", "ops_per_s (f64 path on serve-f64, lowered on serve-int8)", serveLoads},
	{"mtmlf.represent_us", "us", "ops_per_s (f64 path on serve-f64, lowered on serve-int8)", serveLoads},
	{"mtmlf.heads_us", "us", "ops_per_s (f64 path on serve-f64, lowered on serve-int8)", serveLoads},
	{"mtmlf.beam_us", "us", "info lat_p99_ms", serveLoads},
	{"mtmlf.ckpt_load_ms", "ms", "setup_s", allLoads},
	{"mtmlf.lower_ms", "ms", "setup_s", []string{serveInt8}},
	{"corpus.open_ms", "ms", "setup_s", trainLoads},
	{"corpus.first_batch_ms", "ms", "setup_s", trainLoads},
	{"corpus.fetch_us", "us", "ops_per_s (mostly train-single)", trainLoads},
	{"mtmlf.forward_us", "us", "ops_per_s", trainLoads},
	{"ag.backward_us", "us", "ops_per_s", trainLoads},
	{"nn.adam_us", "us", "ops_per_s", trainLoads},
	{"dist.allreduce_us", "us", "ops_per_s (train-fleet2)", trainLoads},
	{"dist.wait_frac", "frac", "ops_per_s (train-fleet2)", trainLoads},
	{"dist.bytes_per_step", "bytes", "ops_per_s (train-fleet2)", []string{trainFleet2}},
	{"bench.gen_late_us", "us", "lat_p50_ms, info lat_p99_ms", serveLoads},
	{"trace.remainder_us", "us", "lat_p50_ms", allLoads},
	{"trace.ops_per_s", "1/s", "ops_per_s", allLoads},
}

// endToEnd lists the end-to-end metrics with their units, in report
// order. BENCHMARK.json holds their bounds.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"card_qerr_p50", "ratio"},
}
