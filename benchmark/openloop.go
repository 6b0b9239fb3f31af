package main

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Endpoints, indexed as the picker returns them.
const (
	epCard = iota
	epCost
	epJoinOrder
	numEndpoints
)

var endpointPaths = [numEndpoints]string{"/estimate/card", "/estimate/cost", "/joinorder"}
var endpointNames = [numEndpoints]string{"card", "cost", "joinorder"}

// picker draws the endpoint from the traffic mix and the query
// uniformly from the pool.
type picker struct {
	rng   *rand.Rand
	st    settings
	total int
}

func newPicker(seed int64, st settings) *picker {
	return &picker{rng: newRand(seed), st: st, total: st.Mix.Card + st.Mix.Cost + st.Mix.JoinOrder}
}

func (p *picker) next() (ep, item int) {
	n := p.rng.Intn(p.total)
	switch {
	case n < p.st.Mix.Card:
		ep = epCard
	case n < p.st.Mix.Card+p.st.Mix.Cost:
		ep = epCost
	default:
		ep = epJoinOrder
	}
	return ep, p.rng.Intn(p.st.PoolSize)
}

// An arrival is one open-loop request: when it is due, relative to
// the start of the phase, and what it asks.
type arrival struct {
	due      time.Duration
	ep, item int
}

// poissonSchedule draws Poisson arrivals at rate per second over dur.
// The schedule is fixed before the phase starts, so a stalled
// generator delays arrivals but never drops or re-times them.
func poissonSchedule(seed int64, st settings, dur time.Duration) []arrival {
	rng := newRand(seed)
	p := newPicker(seed+1, st)
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / st.RateQPS
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		ep, item := p.next()
		out = append(out, arrival{due: due, ep: ep, item: item})
	}
}

// phaseBConns caps the open loop's connections at nproc and at the
// phase A client count.
func phaseBConns(st settings) int { return min(st.Clients, runtime.NumCPU()) }

// outcome is what happened to one arrival.
type outcome struct {
	due, sent, done time.Time
	ok              bool
}

// runOpenLoop sends the schedule from conns workers, each owning one
// connection (send's worker argument; i indexes the schedule and due
// is the arrival's due time). Workers take arrivals strictly
// in schedule order and send each at its due time, or at once when it
// is already late; the lateness (sent - due) is the generator's own
// delay and stays in the latency, which is timed from the due time.
func runOpenLoop(sched []arrival, conns int, send func(worker, i int, a arrival, due time.Time) bool) []outcome {
	out := make([]outcome, len(sched))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i].due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				ok := send(w, i, sched[i], due)
				out[i] = outcome{due: due, sent: sent, done: time.Now(), ok: ok}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// openLoopLatencies returns each arrival's latency from its due time
// in ms (+Inf when it failed), and the mean generator lateness in µs.
func openLoopLatencies(outs []outcome) (latMs []float64, lateUs float64) {
	due := make([]time.Time, len(outs))
	done := make([]time.Time, len(outs))
	ok := make([]bool, len(outs))
	var late time.Duration
	for i, o := range outs {
		due[i], done[i], ok[i] = o.due, o.done, o.ok
		late += o.sent.Sub(o.due)
	}
	return dueLatenciesMs(due, done, ok), perOpUs(late, len(outs))
}

// runClosedLoop runs clients workers for dur, each sending its next
// request as soon as the previous one completes. It returns when,
// from the start, each successful request completed.
func runClosedLoop(clients int, seed int64, st settings, dur time.Duration, send func(worker, ep, item int) bool) (okAt []time.Duration) {
	start := time.Now()
	end := start.Add(dur)
	oks := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := newPicker(seed+int64(w), st)
			for time.Now().Before(end) {
				ep, item := p.next()
				if send(w, ep, item) {
					oks[w] = append(oks[w], time.Since(start))
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range oks {
		okAt = append(okAt, oks[w]...)
	}
	return okAt
}

// windowRates splits a phase of length dur into n windows and returns
// each window's successes per second; fastFigure of them is the
// closed loop's throughput.
func windowRates(okAt []time.Duration, dur time.Duration, n int) []float64 {
	window := dur / time.Duration(n)
	rates := make([]float64, n)
	for _, t := range okAt {
		if i := int(t / window); i < len(rates) {
			rates[i]++
		}
	}
	for i := range rates {
		rates[i] /= window.Seconds()
	}
	return rates
}

// windowMedians splits the open loop's schedule, of length dur, into n
// windows by due time and returns the median latency of each window's
// arrivals; fastFigure of them is the open loop's lat_p50_ms.
func windowMedians(sched []arrival, latMs []float64, dur time.Duration, n int) []float64 {
	byWindow := make([][]float64, n)
	for i, a := range sched {
		w := min(n-1, int(a.due*time.Duration(n)/dur))
		byWindow[w] = append(byWindow[w], latMs[i])
	}
	var out []float64
	for _, xs := range byWindow {
		if len(xs) > 0 {
			out = append(out, percentile(xs, 0.5))
		}
	}
	return out
}
