package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"mtmlf/internal/ckptio"
)

// A span is one timed call into a layer, recorded from the
// benchmark's side of the call. Spans of one operation (a request or
// a training step) share op; parent indexes the span that caused
// this one (-1 for the operation's root).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// newTracer sizes the span buffer for a default-length run, so
// appends rarely copy while requests are in flight.
func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<15)} }

// add records a span and returns its index, for use as a parent.
func (t *tracer) add(name string, op int64, parent int32, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return int32(len(t.spans) - 1)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	return ckptio.WriteFileAtomic(path, func(f io.Writer) error {
		w := bufio.NewWriter(f)
		enc := json.NewEncoder(w)
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return w.Flush()
	})
}

// selfTimes sums, per span name, each span's self time: its duration
// minus the part of its interval that its children cover. Children
// may overlap each other (parallel fetches of one minibatch); the
// covered part is the union of their intervals, clipped to the
// parent, so overlapping children are not subtracted twice. Spans
// must come from one tracer (parents index the same slice).
func selfTimes(spans []span) map[string]time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		covered := coveredNs(s, spans, kids[i])
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// coveredNs is the length of the union of the child intervals,
// clipped to the parent's interval.
func coveredNs(parent span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// spanTotals sums full span durations per name.
func spanTotals(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start)
	}
	return out
}

// perOpUs divides a total by the operation count, in microseconds.
func perOpUs(d time.Duration, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(d) / float64(time.Microsecond) / float64(ops)
}

// breakdown prints a blocking-path table: each named part's mean per
// operation and its share of the operation's mean time.
func breakdown(title string, opUs float64, parts []namedUs) {
	fmt.Printf("%s: %.1f us per operation\n", title, opUs)
	for _, p := range parts {
		share := 0.0
		if opUs > 0 {
			share = 100 * p.us / opUs
		}
		fmt.Printf("  %-26s %10.1f us  %5.1f%%\n", p.name, p.us, share)
	}
}

type namedUs struct {
	name string
	us   float64
}
