package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"mtmlf/internal/nn"
	"mtmlf/internal/serve"
)

// traceServe fills the serving per-layer metrics. The HTTP phases of
// the traced run give generator lateness, the /statsz counters and the
// traced throughput. The server's own layers are then timed by
// replaying the phase B schedule in process: the same decode, Engine
// call and encode the handler makes, at the same rate over the same
// number of callers, against an Engine built like mtmlf-serve's. The
// Engine's compute is timed by running each replayed request once
// more serially (tier.solo); those spans are placed at the end of the
// request's Engine call, so the Engine span's self time is the wait
// for a session and for batch fill.
func traceServe(e *env, fx fixture, t tier, ref *reference, tr *tracer, sched []arrival, httpOuts []outcome,
	before, after serve.StatsSnapshot, tracedRPS float64, res *result) error {
	st := e.st
	db := t.m.Feat.DB
	var loads, lowers []float64
	for i := 0; i < st.SetupReps; i++ {
		t0 := time.Now()
		m, err := loadCheckpoint(fx.ckpt, db)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if t.lm != nil {
			m.Lower(nn.PrecisionInt8)
		}
		loads, lowers = append(loads, ms(t1.Sub(t0))), append(lowers, ms(time.Since(t1)))
	}
	res.set("mtmlf.ckpt_load_ms", "ms", median(loads))
	if t.lm != nil {
		res.set("mtmlf.lower_ms", "ms", median(lowers))
	}
	if n := float64(after.Requests - before.Requests); n > 0 && after.Batches > before.Batches {
		res.set("serve.batch_size", "count", n/float64(after.Batches-before.Batches))
		res.set("serve.fused_frac", "frac", float64(after.FusedRequests-before.FusedRequests)/n)
		res.set("tensor.pool_miss_per_req", "count", float64(after.Pool.Allocs-before.Pool.Allocs)/n)
	}

	// In-process replay of phase B.
	prec := nn.PrecisionF64
	if t.lm != nil {
		prec = nn.PrecisionInt8
	}
	eng, err := serve.NewEngine(t.m, serve.Options{MaxBatch: 8, BatchWindow: 200 * time.Microsecond,
		ShedOverload: true, Precision: prec})
	if err != nil {
		return err
	}
	marks := make([][4]time.Time, len(sched)) // decode start, engine start, encode start, end
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	outs := runOpenLoop(sched, phaseBConns(st), func(_, i int, a arrival, _ time.Time) bool {
		mk := &marks[i]
		mk[0] = time.Now()
		r, err := decodeRequest(db, ref.bodies[a.item])
		mk[1] = time.Now()
		var body []byte
		if err == nil {
			ctx := context.Background()
			switch a.ep {
			case epJoinOrder:
				var jo *serve.JoinOrderResult
				if jo, err = eng.JoinOrderCtx(ctx, r.q, r.p); err == nil {
					mk[2] = time.Now()
					body = encodeResponse(serve.JoinOrderJSON{Order: jo.Order, LogProb: jo.LogProb, Legal: jo.Legal})
				}
			default:
				var est *serve.Estimate
				if a.ep == epCard {
					est, err = eng.EstimateCardCtx(ctx, r.q, r.p)
				} else {
					est, err = eng.EstimateCostCtx(ctx, r.q, r.p)
				}
				if err == nil {
					mk[2] = time.Now()
					body = encodeResponse(serve.EstimateJSON{Nodes: est.Nodes, Root: est.Root, Plan: r.p.String()})
				}
			}
		}
		mk[3] = time.Now()
		return err == nil && bytes.Equal(body, ref.want[a.ep][a.item])
	})
	runtime.ReadMemStats(&m1)
	eng.Close()
	replay := phase{Name: "B-replay"}
	for i, o := range outs {
		replay.Sent++
		if o.ok {
			replay.OK++
		} else {
			replay.Failed++
			res.mismatch("in-process replay %s pool item %d differs from the reference", endpointNames[sched[i].ep], sched[i].item)
		}
	}
	res.addPhase(replay)

	// Spans of the replay, with each request's serial compute placed
	// at the end of its Engine call.
	var nEst, nJO int
	for i, o := range outs {
		mk := marks[i]
		if !o.ok {
			continue
		}
		op := int64(i)
		root := tr.add("replay.request", op, -1, o.due, mk[3])
		tr.add("replay.gen_late", op, root, o.due, mk[0])
		tr.add("serve.decode", op, root, mk[0], mk[1])
		engine := tr.add("serve.engine", op, root, mk[1], mk[2])
		tr.add("serve.encode", op, root, mk[2], mk[3])
		a := sched[i]
		r := ref.reqs[a.item]
		_, _, ts := t.solo(a.ep, r.q, r.p)
		end := mk[2]
		repStart := end.Add(-(ts.represent + ts.heads + ts.beam))
		rep := tr.add("mtmlf.represent", op, engine, repStart, repStart.Add(ts.represent))
		tr.add("featurize.encode", op, rep, repStart, repStart.Add(ts.featurize))
		if a.ep == epJoinOrder {
			tr.add("mtmlf.beam", op, engine, end.Add(-ts.beam), end)
			nJO++
		} else {
			tr.add("mtmlf.heads", op, engine, end.Add(-ts.heads), end)
			nEst++
		}
	}
	n := nEst + nJO
	self, total := selfTimes(tr.spans), spanTotals(tr.spans)
	perReq := func(name string) float64 { return perOpUs(self[name], n) }
	httpLat, lateUs := openLoopLatencies(httpOuts)
	httpUs := 1000 * mean(httpLat)
	parts := []namedUs{
		{"bench.gen_late", lateUs},
		{"serve.decode", perReq("serve.decode")},
		{"serve.queue_wait (engine self)", perReq("serve.engine")},
		{"featurize.encode", perReq("featurize.encode")},
		{"mtmlf.represent (self)", perReq("mtmlf.represent")},
		{"mtmlf.heads", perReq("mtmlf.heads")},
		{"mtmlf.beam", perReq("mtmlf.beam")},
		{"serve.encode", perReq("serve.encode")},
	}
	remainder := httpUs
	for _, p := range parts {
		remainder -= p.us
	}
	parts = append(parts, namedUs{"remainder (HTTP, net/http, scheduling)", remainder})
	breakdown("request (phase B over HTTP, mean from due time)", httpUs, parts)
	fmt.Println("layer times other than lateness come from the in-process replay of the phase B schedule;",
		"heads and beam are averaged over all requests here and per call in the metrics.")

	res.set("serve.decode_us", "us", perReq("serve.decode"))
	res.set("serve.encode_us", "us", perReq("serve.encode"))
	res.set("serve.engine_us", "us", perOpUs(total["serve.engine"], n))
	res.set("serve.queue_wait_us", "us", perReq("serve.engine"))
	res.set("serve.allocs_per_req", "count", float64(m1.Mallocs-m0.Mallocs)/float64(len(outs)))
	res.set("featurize.encode_us", "us", perReq("featurize.encode"))
	res.set("mtmlf.represent_us", "us", perReq("mtmlf.represent"))
	res.set("mtmlf.heads_us", "us", perOpUs(total["mtmlf.heads"], nEst))
	res.set("mtmlf.beam_us", "us", perOpUs(total["mtmlf.beam"], nJO))
	res.set("bench.gen_late_us", "us", lateUs)
	res.set("trace.remainder_us", "us", remainder)
	res.set("trace.ops_per_s", "1/s", tracedRPS)
	return e.writeTrace(tr)
}
