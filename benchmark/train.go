package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"mtmlf/internal/ag"
	"mtmlf/internal/corpus"
	"mtmlf/internal/dist"
	"mtmlf/internal/metrics"
	"mtmlf/internal/mtmlf"
	"mtmlf/internal/nn"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/workload"
)

// stepClock decorates a dist.Exchanger. The trainer calls AllReduce
// exactly once per minibatch (batch > 1), so the end of each call is
// a step boundary; the call itself is the exchange time.
type stepClock struct {
	dist.Exchanger
	calls [][2]time.Time
}

func (c *stepClock) AllReduce(params []*ag.Value, slots []ag.Grads, losses []float64, scale float64) error {
	t0 := time.Now()
	err := c.Exchanger.AllReduce(params, slots, losses, scale)
	c.calls = append(c.calls, [2]time.Time{t0, time.Now()})
	return err
}

// timedSource decorates a workload.Source, recording each fetch. The
// trainer fetches a minibatch's examples concurrently.
type timedSource struct {
	workload.Source
	mu    sync.Mutex
	calls [][2]time.Time
}

func (s *timedSource) Example(i int) (*workload.LabeledQuery, error) {
	t0 := time.Now()
	lq, err := s.Source.Example(i)
	t1 := time.Now()
	s.mu.Lock()
	s.calls = append(s.calls, [2]time.Time{t0, t1})
	s.mu.Unlock()
	return lq, err
}

// trainJob is one rank's (or the single process's) training run.
type trainJob struct {
	model      *mtmlf.Model
	clock      *stepClock
	fetches    *timedSource // nil when not tracing
	stats      mtmlf.TrainStats
	start, end time.Time
}

// openTraining opens the corpus and returns its training split and
// the catalog's database.
func openTraining(path string, st settings) (*corpus.Reader, workload.Source, *sqldb.DB, error) {
	r, err := corpus.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	cat, err := r.Catalog(0)
	if err != nil {
		r.Close()
		return nil, nil, nil, err
	}
	exs := cat.Examples()
	src, err := workload.SubSource(exs, st.PoolSize, exs.Len())
	if err != nil {
		r.Close()
		return nil, nil, nil, err
	}
	return r, src, cat.DB(), nil
}

func loadCheckpoint(path string, db *sqldb.DB) (*mtmlf.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, _, err := mtmlf.LoadModel(f, db)
	return m, err
}

// fineTuneLR is the fine-tuning learning rate: the paper's 1e-4, ten
// times below the rate the checkpoint was trained with, so the model
// stays near the checkpoint and its q-error varies across seeds about
// as little as the served checkpoint's.
const fineTuneLR = 1e-4

// runTrainJob fine-tunes the fixture checkpoint for steps minibatches
// of the seed's shuffle of the training split, streaming examples
// from the corpus. dial supplies the exchanger once the model is
// loaded (for a fleet rank it blocks until every rank has joined).
func runTrainJob(fx fixture, seed int64, st settings, steps, workers int, traced bool, dial func() (dist.Exchanger, error)) (*trainJob, error) {
	r, src, db, err := openTraining(fx.corpus, st)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	job := &trainJob{}
	if job.model, err = loadCheckpoint(fx.ckpt, db); err != nil {
		return nil, err
	}
	if traced {
		job.fetches = &timedSource{Source: src}
		src = job.fetches
	}
	ex, err := dial()
	if err != nil {
		return nil, err
	}
	defer ex.Close()
	job.clock = &stepClock{Exchanger: ex}
	perEpoch := (src.Len() + st.Batch - 1) / st.Batch
	job.start = time.Now()
	job.stats, err = job.model.TrainJointStream(src, mtmlf.TrainOptions{
		Epochs: steps/perEpoch + 1, Seed: seed + 3, LR: fineTuneLR, BatchSize: st.Batch, Workers: workers,
		RecordTrajectory: true, Exchanger: job.clock,
		Snapshot: mtmlf.SnapshotOptions{InterruptAfter: steps},
	})
	job.end = time.Now()
	if errors.Is(err, mtmlf.ErrInterrupted) {
		err = nil
	}
	if err == nil && len(job.clock.calls) != steps {
		err = fmt.Errorf("trained %d minibatches, want %d", len(job.clock.calls), steps)
	}
	return job, err
}

func localExchanger() (dist.Exchanger, error) { return dist.Local(), nil }

// runFleet runs the job as a world-rank TCP fleet on loopback inside
// this process: a coordinator plus one goroutine per rank, each with
// its own corpus reader, model and exchanger, as separate processes
// would have.
func runFleet(fx fixture, seed int64, st settings, steps, world int, traced bool) ([]*trainJob, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	coord := dist.NewCoordinator(ln, world)
	coordErr := make(chan error, 1)
	go func() { coordErr <- coord.Run() }()
	jobs := make([]*trainJob, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for rank := 0; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			jobs[rank], errs[rank] = runTrainJob(fx, seed, st, steps, 1, traced, func() (dist.Exchanger, error) {
				return dist.DialRetry(coord.Addr(), rank, world, fmt.Sprintf("benchmark seed=%d", seed), 100, 20*time.Millisecond)
			})
			if errs[rank] != nil {
				ln.Close() // unblocks a coordinator still waiting for this rank
			}
		}(rank)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		<-coordErr
		return nil, err
	}
	if err := <-coordErr; err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	return jobs, nil
}

// setupTimes is one set-up measurement, split by step.
type setupTimes struct{ open, load, firstBatch time.Duration }

// timeTrainSetup is one set-up measurement: everything a training run
// does before its first step, from corpus.Open through the checkpoint
// load to the first minibatch fetched. The load is included so that
// work moved into model loading shows in setup_s.
func timeTrainSetup(fx fixture, seed int64, st settings) (setupTimes, error) {
	t0 := time.Now()
	r, src, db, err := openTraining(fx.corpus, st)
	if err != nil {
		return setupTimes{}, err
	}
	defer r.Close()
	t1 := time.Now()
	if _, err := loadCheckpoint(fx.ckpt, db); err != nil {
		return setupTimes{}, err
	}
	t2 := time.Now()
	// The trainer's first minibatch is the head of the seed's first
	// epoch permutation (mtmlf runEpochs: rand.Perm per epoch).
	for _, i := range firstMinibatch(seed+3, src.Len(), st.Batch) {
		if _, err := src.Example(i); err != nil {
			return setupTimes{}, err
		}
	}
	return setupTimes{open: t1.Sub(t0), load: t2.Sub(t1), firstBatch: time.Since(t2)}, nil
}

func runTrain(env *env, res *result) error {
	st, seed := env.st, env.seed
	fleet := env.workload == trainFleet2
	fx, err := ensureFixture(env.buildDir, seed, st)
	if err != nil {
		return err
	}
	var setups []float64
	var parts []setupTimes
	runtime.GC() // earlier workloads' garbage is not this set-up's work
	for i := 0; i < st.SetupReps; i++ {
		p, err := timeTrainSetup(fx, seed, st)
		if err != nil {
			return err
		}
		setups = append(setups, (p.open + p.load + p.firstBatch).Seconds())
		parts = append(parts, p)
	}
	res.set("setup_s", "s", median(setups))

	// peak_rss_mb covers the measured job only: set-up repeats, and on
	// --workload all the earlier workloads, ran in this process too.
	if err := resetPeakRSS(); err != nil {
		return err
	}
	steps := st.trainSteps()
	var jobs []*trainJob
	if fleet {
		jobs, err = runFleet(fx, seed, st, steps, 2, env.trace)
	} else {
		var job *trainJob
		job, err = runTrainJob(fx, seed, st, steps, runtime.GOMAXPROCS(0), env.trace, localExchanger)
		jobs = []*trainJob{job}
	}
	if err != nil {
		return err
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	start, end := jobs[0].start, jobs[0].end
	for _, j := range jobs[1:] {
		start, end = minTime(start, j.start), maxTime(end, j.end)
	}
	stepMs := stepDurationsMs(jobs[0])
	rates, p50s := stepWindows(stepMs, st.Batch, windows)
	exPerS := fastFigure(rates, true)
	fmt.Printf("train examples/s per window: %.0f\nminibatch p50 ms per window: %.1f\n", rates, p50s)

	// Output checks: the first PrefixSteps minibatches of loss
	// trajectory must equal a reference run's bit for bit. train-single
	// is checked against one worker (worker-count invariance),
	// train-fleet2 against the single process (fleet invariance).
	refWorkers := 1
	if fleet {
		refWorkers = runtime.GOMAXPROCS(0)
	}
	ref, err := runTrainJob(fx, seed, st, st.PrefixSteps, refWorkers, false, localExchanger)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	failed := 0
	for k := 0; k < steps; k++ {
		bad := false
		for rank, j := range jobs {
			got := j.stats.Trajectory[k*st.Batch : (k+1)*st.Batch]
			if k < st.PrefixSteps {
				if i := firstDiff(got, ref.stats.Trajectory[k*st.Batch:(k+1)*st.Batch]); i >= 0 {
					res.mismatch("rank %d minibatch %d example %d: loss %x, reference %x", rank, k, i, got[i], ref.stats.Trajectory[k*st.Batch+i])
					bad = true
				}
			}
			if i := firstDiff(got, jobs[0].stats.Trajectory[k*st.Batch:(k+1)*st.Batch]); i >= 0 {
				res.mismatch("rank %d minibatch %d example %d: loss differs from rank 0", rank, k, i)
				bad = true
			}
		}
		if bad {
			failed++
		}
	}
	res.addPhase(phase{Name: "train", Sent: steps, OK: steps - failed, Failed: failed})

	qerr, err := trainedQError(fx, st, jobs[0].model)
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", "MB", rss)
	res.set("ops_per_s", "1/s", exPerS)
	res.set("lat_p50_ms", "ms", fastFigure(p50s, false))
	res.info("lat_p50_run_ms", percentile(stepMs, 0.5))
	res.info("lat_p95_ms", percentile(stepMs, 0.95))
	res.info("train_loss", jobs[0].stats.FinalLoss)
	res.info("wall_s", end.Sub(start).Seconds())
	res.set("card_qerr_p50", "ratio", qerr)

	if env.trace {
		return traceTrain(env, fx, jobs, parts, exPerS, res)
	}
	return nil
}

// trainedQError is card_qerr_p50 for the trained model.
func trainedQError(fx fixture, st settings, m *mtmlf.Model) (float64, error) {
	pool, err := readPool(fx.corpus, st.PoolSize)
	if err != nil {
		return 0, err
	}
	return cardQErrP50(pool, func(i int) []float64 { return m.EstimateNodeCards(pool[i]) }), nil
}

// cardQErrP50 is the median q-error of the cardinality estimates of
// every plan node of every pool query (as mtmlf-train reports card
// q-error), cards(i) being query i's estimates in post-order. Over the
// pool's ~1800 sub-plans it varies about 5% across seeds; the median
// over the 256 roots alone varied up to 20%.
func cardQErrP50(pool []*workload.LabeledQuery, cards func(i int) []float64) float64 {
	var qs []float64
	for i, lq := range pool {
		for j, c := range cards(i) {
			qs = append(qs, metrics.QError(c, lq.NodeCards[j]))
		}
	}
	return median(qs)
}

// readPool reads the held-out pool: the corpus's first n examples.
func readPool(path string, n int) ([]*workload.LabeledQuery, error) {
	r, err := corpus.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	exs, err := r.Examples(0)
	if err != nil {
		return nil, err
	}
	sub, err := workload.SubSource(exs, 0, n)
	if err != nil {
		return nil, err
	}
	return workload.Materialize(sub)
}

// stepWindows cuts a run's minibatch times into windows of
// consecutive minibatches and returns, per window, examples per second
// and the median minibatch time; fastFigure of each is the run's
// ops_per_s and lat_p50_ms.
func stepWindows(stepMs []float64, batch, n int) (rates, p50s []float64) {
	per := max(1, len(stepMs)/n)
	for lo := 0; lo+per <= len(stepMs); lo += per {
		w := stepMs[lo : lo+per]
		sum := 0.0
		for _, d := range w {
			sum += d
		}
		rates = append(rates, float64(per*batch)/(sum/1000))
		p50s = append(p50s, percentile(w, 0.5))
	}
	return rates, p50s
}

// stepDurationsMs returns each minibatch's wall time: from the end of
// the previous exchange (or the start of training) to the end of its
// own.
func stepDurationsMs(j *trainJob) []float64 {
	out := make([]float64, len(j.clock.calls))
	prev := j.start
	for k, c := range j.clock.calls {
		out[k] = ms(c[1].Sub(prev))
		prev = c[1]
	}
	return out
}

// firstDiff returns the first index where a and b differ bitwise, or
// -1.
func firstDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// firstMinibatch is the head of the first epoch's shuffle, drawn the
// way the trainer draws it.
func firstMinibatch(seed int64, n, batch int) []int {
	perm := newRand(seed).Perm(n)
	return perm[:min(batch, n)]
}

// traceTrain fills the training per-layer metrics: fetch and exchange
// time from the decorators of the traced run, and forward, backward
// and Adam time from a replay of fixed minibatches.
func traceTrain(env *env, fx fixture, jobs []*trainJob, setups []setupTimes, tracedExPerS float64, res *result) error {
	st := env.st
	tr := newTracer()
	j := jobs[0]
	steps := len(j.clock.calls)
	prev := j.start
	fetch := j.fetches.calls
	fi := 0
	var fetchUnion, allreduce time.Duration
	for k, c := range j.clock.calls {
		root := tr.add("train.step", int64(k), -1, prev, c[1])
		first := len(tr.spans)
		for fi < len(fetch) && fetch[fi][0].Before(c[0]) {
			tr.add("corpus.fetch", int64(k), root, fetch[fi][0], fetch[fi][1])
			fi++
		}
		fetchUnion += time.Duration(coveredNs(tr.spans[root], tr.spans, seq(first, len(tr.spans))))
		tr.add("dist.allreduce", int64(k), root, c[0], c[1])
		allreduce += c[1].Sub(c[0])
		prev = c[1]
	}
	wall := j.clock.calls[steps-1][1].Sub(j.start)

	rp, err := replayTraining(fx, env.seed, st, tr, 4)
	if err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	if len(jobs) > 1 {
		workers = len(jobs)
	}
	stepUs := perOpUs(wall, steps)
	fetchUs, arUs := perOpUs(fetchUnion, steps), perOpUs(allreduce, steps)
	computeUs := (rp.forwardUs+rp.backwardUs)/float64(workers) + rp.adamUs
	remainder := stepUs - fetchUs - arUs - computeUs

	var opens, loads, firsts []float64
	for _, p := range setups {
		opens, loads, firsts = append(opens, ms(p.open)), append(loads, ms(p.load)), append(firsts, ms(p.firstBatch))
	}
	res.set("corpus.open_ms", "ms", median(opens))
	res.set("mtmlf.ckpt_load_ms", "ms", median(loads))
	res.set("corpus.first_batch_ms", "ms", median(firsts))
	res.set("corpus.fetch_us", "us", fetchUs)
	res.set("mtmlf.forward_us", "us", rp.forwardUs)
	res.set("ag.backward_us", "us", rp.backwardUs)
	res.set("nn.adam_us", "us", rp.adamUs)
	res.set("dist.allreduce_us", "us", arUs)
	res.set("dist.wait_frac", "frac", float64(allreduce)/float64(wall))
	if len(jobs) > 1 {
		res.set("dist.bytes_per_step", "bytes", rp.wireBytes(len(jobs)))
	}
	res.set("trace.remainder_us", "us", remainder)
	res.set("trace.ops_per_s", "1/s", tracedExPerS)

	breakdown("minibatch step (rank 0, blocking path)", stepUs, []namedUs{
		{"corpus.fetch (union)", fetchUs},
		{"compute: (forward+backward)/" + fmt.Sprint(workers), (rp.forwardUs + rp.backwardUs) / float64(workers)},
		{"nn.adam", rp.adamUs},
		{"dist.allreduce", arUs},
		{"remainder", remainder},
	})
	fmt.Printf("forward, backward and adam are per minibatch from a serial replay of %d fixed minibatches; "+
		"compute divides forward+backward by the workers that share a minibatch.\n", len(rp.touched))
	if len(jobs) > 1 {
		fmt.Println("dist.bytes_per_step is computed from the replay's per-slot gradients and the dist frame format, not read off the wire.")
	}
	return env.writeTrace(tr)
}

// replay holds per-minibatch means from replayTraining.
type replay struct {
	forwardUs, backwardUs, adamUs float64
	// touched[k][i] lists the parameters (indexes into sizes) slot i
	// of minibatch k produced gradients for.
	touched [][][]int
	sizes   []int
}

// replayTraining times forward (Represent plus the Equation 1 losses),
// backward (Value.BackwardInto) and Adam.Step over fixed minibatches
// of the training split, one example at a time.
func replayTraining(fx fixture, seed int64, st settings, tr *tracer, batches int) (*replay, error) {
	r, src, db, err := openTraining(fx.corpus, st)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	m, err := loadCheckpoint(fx.ckpt, db)
	if err != nil {
		return nil, err
	}
	cfg := m.Shared.Cfg
	params := m.Shared.Params()
	opt := nn.NewAdam(params, fineTuneLR)
	perm := newRand(seed + 3).Perm(src.Len())
	batches = min(batches, len(perm)/st.Batch)
	rp := &replay{}
	for _, p := range params {
		rp.sizes = append(rp.sizes, p.T.Size())
	}
	var fwd, bwd, adam time.Duration
	for k := 0; k < batches; k++ {
		slots := make([]ag.Grads, 0, st.Batch)
		var touched [][]int
		for _, i := range perm[k*st.Batch : (k+1)*st.Batch] {
			lq, err := src.Example(i)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			rep := m.Represent(lq.Q, lq.Plan)
			loss := ag.Add(ag.Scale(m.CardLoss(rep, lq), cfg.WCard), ag.Scale(m.CostLoss(rep, lq), cfg.WCost))
			if len(lq.OptimalOrder) >= 2 {
				loss = ag.Add(loss, ag.Scale(m.JoinOrderTokenLoss(rep, lq.OptimalOrder), cfg.WJo))
			}
			t1 := time.Now()
			sink := ag.Grads{}
			loss.BackwardInto(sink)
			t2 := time.Now()
			tr.add("mtmlf.forward", int64(k), -1, t0, t1)
			tr.add("ag.backward", int64(k), -1, t1, t2)
			fwd += t1.Sub(t0)
			bwd += t2.Sub(t1)
			slots = append(slots, sink)
			var idx []int
			for j, p := range params {
				if sink[p] != nil {
					idx = append(idx, j)
				}
			}
			touched = append(touched, idx)
		}
		opt.ZeroGrad()
		ag.ReduceGrads(params, slots, 1/float64(len(slots)))
		t0 := time.Now()
		opt.Step()
		t1 := time.Now()
		tr.add("nn.adam", int64(k), -1, t0, t1)
		adam += t1.Sub(t0)
		rp.touched = append(rp.touched, touched)
	}
	rp.forwardUs, rp.backwardUs, rp.adamUs = perOpUs(fwd, batches), perOpUs(bwd, batches), perOpUs(adam, batches)
	return rp, nil
}

// wireBytes computes the bytes one minibatch's exchange puts on the
// wire in a world-rank TCP fleet, following internal/dist's frame
// format: every message is a section frame (8-byte length, payload,
// 4-byte CRC32C). Each rank sends its owned slots (slot i belongs to
// rank i mod world) with every gradient it produced; the coordinator
// answers every rank with all losses and the reduced gradient of every
// parameter any slot touched.
func (rp *replay) wireBytes(world int) float64 {
	const frame = 8 + 4
	total := 0
	for _, slots := range rp.touched {
		union := map[int]bool{}
		for r := 0; r < world; r++ {
			b := frame + 1 + 8 + 4 + 8 + 4 // kind, step, n, scale, slot count
			for i, idx := range slots {
				if i%world != r {
					continue
				}
				b += 4 + 8 + 4 // slot, loss, entry count
				for _, j := range idx {
					b += 4 + 4 + 8*rp.sizes[j] // param index, length, data
					union[j] = true
				}
			}
			total += b
		}
		reply := frame + 1 + 8 + 4 + 8*len(slots) + 4 // kind, step, losses, entry count
		for j := range union {
			reply += 4 + 4 + 8*rp.sizes[j]
		}
		total += world * reply
	}
	return float64(total) / float64(len(rp.touched))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func minTime(a, b time.Time) time.Time {
	if b.Before(a) {
		return b
	}
	return a
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}
