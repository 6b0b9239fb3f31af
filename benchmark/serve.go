package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"mtmlf/internal/ag"
	"mtmlf/internal/datagen"
	"mtmlf/internal/loadgen"
	"mtmlf/internal/mtmlf"
	"mtmlf/internal/nn"
	"mtmlf/internal/plan"
	"mtmlf/internal/serve"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/tensor"
	"mtmlf/internal/workload"
)

// server is one mtmlf-serve process.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
	log    bytes.Buffer // read only after the process has exited
	once   sync.Once
}

// startServer starts mtmlf-serve on a free loopback port and waits
// until /healthz answers 200. It returns the time from process start
// to that answer.
func startServer(bin, ckpt string, seed int64, st settings, precision string) (*server, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	s := &server{base: "http://" + addr, exited: make(chan error, 1)}
	s.cmd = exec.Command(bin, "-checkpoint", ckpt, "-seed", fmt.Sprint(seed), "-scale", fmt.Sprint(st.Scale),
		"-addr", addr, "-precision", precision)
	s.cmd.Stdout, s.cmd.Stderr = &s.log, &s.log
	// The server must not outlive the benchmark, however it ends.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { s.exited <- s.cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for time.Since(t0) < time.Minute {
		if resp, err := probe.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case err := <-s.exited:
			return nil, 0, fmt.Errorf("mtmlf-serve exited before it was healthy (%v):\n%s", err, s.log.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
	s.stop()
	return nil, 0, errors.New("mtmlf-serve not healthy after a minute")
}

// stop asks the server to drain and exit, kills it if it has not
// within ten seconds, and waits until it is gone. Later calls return
// at once.
func (s *server) stop() {
	s.once.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.exited
		}
	})
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// statsz reads the server's /statsz.
func (s *server) statsz() (serve.StatsSnapshot, error) {
	var snap serve.StatsSnapshot
	resp, err := http.Get(s.base + "/statsz")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// conn is one client connection to the server.
type conn struct {
	tr   *http.Transport
	hc   *http.Client
	base string
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{tr: tr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

// post sends one request and returns the status and body (status 0 on
// a transport error).
func (c *conn) post(path string, body []byte) (int, []byte) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, b
}

// tier is the served model at one precision, called through the
// model's public serving entry points.
type tier struct {
	m  *mtmlf.Model
	lm *mtmlf.LoweredModel // nil at f64
}

// soloTimes is one request's serial compute, split by layer.
type soloTimes struct {
	featurize, represent, heads, beam time.Duration
}

// estimate is the tier's serial card or cost answer: the Engine
// contract's reference at f64, LoweredModel serial at int8.
func (t tier) estimate(ep int, q *sqldb.Query, p *plan.Node) []float64 {
	lq := &workload.LabeledQuery{Q: q, Plan: p}
	switch {
	case t.lm == nil && ep == epCard:
		return t.m.EstimateNodeCards(lq)
	case t.lm == nil:
		return t.m.EstimateNodeCosts(lq)
	case ep == epCard:
		return t.lm.EstimateNodeCards(lq)
	default:
		return t.lm.EstimateNodeCosts(lq)
	}
}

// solo computes one request serially in a fresh session, timing each
// layer: the featurizer's table encodings (which represent repeats
// inside), the representation, then the head or the beam search.
func (t tier) solo(ep int, q *sqldb.Query, p *plan.Node) (nodes []float64, jo serve.JoinOrderJSON, ts soloTimes) {
	var leaves []*plan.Node
	for _, n := range p.Nodes() {
		if n.IsLeaf() {
			leaves = append(leaves, n)
		}
	}
	var mem *tensor.Tensor
	var tables []string
	t0 := time.Now()
	if t.lm == nil {
		ev := ag.AcquireEval()
		defer ag.ReleaseEval(ev)
		for _, n := range leaves {
			t.m.Feat.EncodeTableInfer(ev, n.Table, q.FiltersFor(n.Table))
		}
		t1 := time.Now()
		rep := t.m.RepresentInfer(ev, q, p)
		t2 := time.Now()
		ts.featurize, ts.represent = t1.Sub(t0), t2.Sub(t1)
		switch ep {
		case epCard:
			nodes = mtmlf.ExpClamp(t.m.PredictLogCardsInfer(ev, rep).Data)
		case epCost:
			nodes = mtmlf.ExpClamp(t.m.PredictLogCostsInfer(ev, rep).Data)
		default:
			mem, tables = rep.Memory, rep.Tables
		}
		ts.heads = time.Since(t2)
	} else {
		ev := ag.AcquireEvalF32()
		defer ag.ReleaseEvalF32(ev)
		for _, n := range leaves {
			t.lm.Feat.EncodeTableInfer(ev, n.Table, q.FiltersFor(n.Table))
		}
		t1 := time.Now()
		rep := t.lm.RepresentInfer(ev, q, p)
		t2 := time.Now()
		ts.featurize, ts.represent = t1.Sub(t0), t2.Sub(t1)
		switch ep {
		case epCard:
			nodes = mtmlf.ExpClamp32(t.lm.PredictLogCardsInfer(ev, rep).Data)
		case epCost:
			nodes = mtmlf.ExpClamp32(t.lm.PredictLogCostsInfer(ev, rep).Data)
		default:
			mem, tables = rep.Memory.ToTensor(), rep.Tables
		}
		ts.heads = time.Since(t2)
	}
	if ep != epJoinOrder {
		return nodes, jo, ts
	}
	// Trans_JO decodes at f64 in every tier (DESIGN.md §9).
	ts.heads = 0
	t3 := time.Now()
	best, ok := mtmlf.BestBeam(t.m.Shared.JO.BeamSearchTensor(mem, q, t.m.Shared.Cfg.BeamWidth, true))
	if ok {
		jo = serve.JoinOrderJSON{Order: best.OrderTables(tables), LogProb: best.LogProb, Legal: best.Legal}
	}
	ts.beam = time.Since(t3)
	return nil, jo, ts
}

// reference holds the pool and, per endpoint and pool item, the exact
// response body the tier's in-process serial path produces.
type reference struct {
	bodies [][]byte
	labels []*workload.LabeledQuery
	reqs   []request
	want   [numEndpoints][][]byte
	cards  [][]float64 // the card answers in want, decoded
}

// request is one pool item decoded the way the server decodes it.
type request struct {
	q *sqldb.Query
	p *plan.Node
}

// decodeRequest is the server's request decoding: JSON, then the
// schema-aware query and plan codecs.
func decodeRequest(db *sqldb.DB, body []byte) (request, error) {
	var rj serve.RequestJSON
	if err := json.Unmarshal(body, &rj); err != nil {
		return request{}, err
	}
	q, err := serve.DecodeQuery(db, rj.Query)
	if err != nil {
		return request{}, err
	}
	p, err := serve.DecodePlan(rj.Plan)
	return request{q: q, p: p}, err
}

// encodeResponse is the server's response encoding (json.Encoder
// output: the JSON text and a newline).
func encodeResponse(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of finite floats and strings
	}
	return append(b, '\n')
}

func estimateJSON(nodes []float64, p *plan.Node) serve.EstimateJSON {
	return serve.EstimateJSON{Nodes: nodes, Root: nodes[len(nodes)-1], Plan: p.String()}
}

func buildReference(fx fixture, db *sqldb.DB, st settings, t tier) (*reference, error) {
	pool, err := loadgen.CorpusPool(fx.corpus, "", st.PoolSize)
	if err != nil {
		return nil, err
	}
	labels, err := readPool(fx.corpus, st.PoolSize)
	if err != nil {
		return nil, err
	}
	ref := &reference{bodies: pool.Items, labels: labels}
	for i, body := range pool.Items {
		r, err := decodeRequest(db, body)
		if err != nil {
			return nil, fmt.Errorf("pool item %d: %w", i, err)
		}
		ref.reqs = append(ref.reqs, r)
		cards := t.estimate(epCard, r.q, r.p)
		ref.cards = append(ref.cards, cards)
		ref.want[epCard] = append(ref.want[epCard], encodeResponse(estimateJSON(cards, r.p)))
		ref.want[epCost] = append(ref.want[epCost], encodeResponse(estimateJSON(t.estimate(epCost, r.q, r.p), r.p)))
		_, jo, _ := t.solo(epJoinOrder, r.q, r.p)
		if jo.Order == nil {
			return nil, fmt.Errorf("pool item %d: join graph admits no connected order", i)
		}
		ref.want[epJoinOrder] = append(ref.want[epJoinOrder], encodeResponse(jo))
	}
	return ref, nil
}

// check reports whether a response is the reference answer bit for
// bit. Equal bytes are equal floats (Go writes the shortest text that
// parses back to the same float64); other bytes are decoded and the
// floats compared by their bits, so a formatting change alone is not
// a mismatch.
func (ref *reference) check(ep, item, status int, body []byte) bool {
	if status != http.StatusOK {
		return false
	}
	want := ref.want[ep][item]
	if bytes.Equal(body, want) {
		return true
	}
	if ep == epJoinOrder {
		var got, exp serve.JoinOrderJSON
		if json.Unmarshal(body, &got) != nil || json.Unmarshal(want, &exp) != nil {
			return false
		}
		return got.Legal == exp.Legal && math.Float64bits(got.LogProb) == math.Float64bits(exp.LogProb) &&
			slices.Equal(got.Order, exp.Order)
	}
	var got, exp serve.EstimateJSON
	if json.Unmarshal(body, &got) != nil || json.Unmarshal(want, &exp) != nil {
		return false
	}
	return got.Plan == exp.Plan && math.Float64bits(got.Root) == math.Float64bits(exp.Root) &&
		len(got.Nodes) == len(exp.Nodes) && firstDiff(got.Nodes, exp.Nodes) < 0
}

// servePhase accumulates one phase's counts and per-endpoint latency
// histograms. Safe for concurrent use.
type servePhase struct {
	mu    sync.Mutex
	p     phase
	hists [numEndpoints]loadgen.Histogram
}

func (sp *servePhase) record(ep int, lat time.Duration, ok bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.p.Sent++
	if ok {
		sp.p.OK++
		sp.hists[ep].Record(lat)
	} else {
		sp.p.Failed++
	}
}

func (sp *servePhase) print() {
	for ep := 0; ep < numEndpoints; ep++ {
		h := &sp.hists[ep]
		if h.Count() > 0 {
			fmt.Printf("  %-10s %-9s ok %6d  p50 %8.3f ms  p99 %8.3f ms  max %8.3f ms\n", sp.p.Name, endpointNames[ep],
				h.Count(), h.PercentileMs(0.50), h.PercentileMs(0.99), ms(h.Max()))
		}
	}
}

func runServe(e *env, res *result) error {
	st, seed := e.st, e.seed
	precision := "f64"
	if e.workload == serveInt8 {
		precision = "int8"
	}
	fx, err := ensureFixture(e.buildDir, seed, st)
	if err != nil {
		return err
	}
	db := datagen.SyntheticIMDB(seed, st.Scale)
	m, err := loadCheckpoint(fx.ckpt, db)
	if err != nil {
		return err
	}
	t := tier{m: m}
	if precision == "int8" {
		t.lm = m.Lower(nn.PrecisionInt8)
	}
	ref, err := buildReference(fx, db, st, t)
	if err != nil {
		return err
	}

	// Set-up: process start to the first healthy /healthz, several
	// times; the last server stays up for the measurement. Collecting
	// the reference build's garbage first keeps this process's GC
	// from competing with the servers' start on the CPUs.
	bin := filepath.Join(e.buildDir, "bin", "mtmlf-serve")
	var srv *server
	var setups []float64
	runtime.GC()
	for i := 0; i < st.SetupReps; i++ {
		if srv != nil {
			srv.stop()
		}
		var d time.Duration
		if srv, d, err = startServer(bin, fx.ckpt, seed, st, precision); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	defer srv.stop()
	res.set("setup_s", "s", median(setups))

	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	conns := make([]*conn, max(st.Clients, phaseBConns(st)))
	for i := range conns {
		conns[i] = newConn(srv.base)
		defer conns[i].tr.CloseIdleConnections()
	}
	// send makes one request and checks the answer. Traced, it records
	// the request from its due time (phase B) or its send time, with
	// the generator's lateness and the HTTP exchange as children.
	send := func(w, ep, item int, sp *servePhase, op int64, due time.Time) bool {
		t0 := time.Now()
		status, body := conns[w].post(endpointPaths[ep], ref.bodies[item])
		t1 := time.Now()
		ok := ref.check(ep, item, status, body)
		if !ok {
			res.mismatch("%s %s pool item %d: status %d, body %.200q", sp.p.Name, endpointNames[ep], item, status, body)
		}
		sp.record(ep, t1.Sub(t0), ok)
		if tr != nil {
			if due.IsZero() {
				due = t0
			}
			root := tr.add("request", op, -1, due, t1)
			tr.add("bench.gen_late", op, root, due, t0)
			tr.add("http", op, root, t0, t1)
		}
		return ok
	}

	// Verify: every pool item once on every endpoint. The card answers,
	// checked equal to the reference, give card_qerr_p50, so every pool
	// query counts once whatever its popularity.
	verify := &servePhase{p: phase{Name: "verify"}}
	var wg sync.WaitGroup
	for w := 0; w < st.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for item := w; item < len(ref.bodies); item += st.Clients {
				for ep := 0; ep < numEndpoints; ep++ {
					send(w, ep, item, verify, -1, time.Time{})
				}
			}
		}(w)
	}
	wg.Wait()
	qerr := cardQErrP50(ref.labels, func(i int) []float64 { return ref.cards[i] })

	// Phase A: closed loop.
	phaseA := &servePhase{p: phase{Name: "A-closed"}}
	okAt := runClosedLoop(st.Clients, seed+10, st, st.phaseDuration(), func(w, ep, item int) bool {
		return send(w, ep, item, phaseA, -1, time.Time{})
	})
	rates := windowRates(okAt, st.phaseDuration(), windows)
	rateA := fastFigure(rates, true)
	fmt.Printf("phase A req/s per %v window: %.0f\n", st.phaseDuration()/windows, rates)

	// Phase B: Poisson open loop, latency from the due time.
	before, err := srv.statsz()
	if err != nil {
		return err
	}
	phaseB := &servePhase{p: phase{Name: "B-open"}}
	sched := poissonSchedule(seed+20, st, st.phaseDuration())
	outs := runOpenLoop(sched, phaseBConns(st), func(w, i int, a arrival, due time.Time) bool {
		return send(w, a.ep, a.item, phaseB, int64(i), due)
	})
	after, err := srv.statsz()
	if err != nil {
		return err
	}
	latMs, lateUs := openLoopLatencies(outs)
	p50s := windowMedians(sched, latMs, st.phaseDuration(), windows)
	fmt.Printf("phase B p50 ms per %v window: %.2f\n", st.phaseDuration()/windows, p50s)
	rss, err := peakRSSMB(srv.pid())
	if err != nil {
		return err
	}

	for _, sp := range []*servePhase{verify, phaseA, phaseB} {
		res.addPhase(sp.p)
		sp.print()
	}
	fmt.Printf("phase B: %d arrivals at %g/s (%.2f of phase A's rate) over %d connections; latency is timed from each due time\n",
		len(sched), st.RateQPS, st.RateQPS/rateA, phaseBConns(st))
	res.set("peak_rss_mb", "MB", rss)
	res.set("ops_per_s", "1/s", rateA)
	res.set("lat_p50_ms", "ms", fastFigure(p50s, false))
	res.info("lat_p50_phase_ms", percentile(latMs, 0.50))
	res.info("lat_p90_ms", percentile(latMs, 0.90))
	res.info("lat_p95_ms", percentile(latMs, 0.95))
	res.info("lat_p99_ms", percentile(latMs, 0.99))
	res.info("gen_late_us", lateUs)
	res.info("phase_b_load", st.RateQPS/rateA)
	res.set("card_qerr_p50", "ratio", qerr)
	if !e.trace {
		return nil
	}
	srv.stop()
	return traceServe(e, fx, t, ref, tr, sched, outs, before, after, rateA, res)
}
