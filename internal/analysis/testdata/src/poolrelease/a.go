// Package poolrelease is the fixture for the poolrelease analyzer:
// every Acquire* result is released on all return paths, or its
// ownership explicitly escapes.
package poolrelease

// Eval stands in for ag.Eval: a pooled session handle.
type Eval struct{ live int }

// AcquireEval / ReleaseEval mirror the free-function pool API.
func AcquireEval() *Eval  { return &Eval{} }
func ReleaseEval(e *Eval) { e.live = 0 }

// Pool mirrors the method-form pool API.
type Pool struct{}

func (p *Pool) Acquire() *Eval  { return &Eval{} }
func (p *Pool) Release(e *Eval) { e.live = 0 }

// Flagged: acquired, used, never released.
func leak(work func(*Eval) int) int {
	e := AcquireEval() // want `result of AcquireEval is never released with ReleaseEval`
	return work(e)
}

// Flagged: the error path returns before the release.
func leakOnErrPath(fail bool, work func(*Eval) int) int {
	e := AcquireEval() // want `not released with ReleaseEval on the return path`
	if fail {
		return -1
	}
	n := work(e)
	ReleaseEval(e)
	return n
}

// Flagged: result discarded outright.
func discard() {
	AcquireEval() // want `result of AcquireEval is discarded`
}

// Flagged: result bound to blank.
func discardBlank() {
	_ = AcquireEval() // want `result of AcquireEval is discarded`
}

// Clean: deferred free-function release covers every path.
func deferred(fail bool, work func(*Eval) int) int {
	e := AcquireEval()
	defer ReleaseEval(e)
	if fail {
		return -1
	}
	return work(e)
}

// Clean: deferred method-form release.
func deferredMethod(p *Pool, work func(*Eval) int) int {
	e := p.Acquire()
	defer p.Release(e)
	return work(e)
}

// Clean: explicit release before the single return.
func explicit(work func(*Eval) int) int {
	e := AcquireEval()
	n := work(e)
	ReleaseEval(e)
	return n
}

// Clean: released inside a deferred cleanup closure.
func deferredClosure(work func(*Eval) int) int {
	e := AcquireEval()
	defer func() { ReleaseEval(e) }()
	return work(e)
}

// Clean: ownership escapes to the caller with the value.
func handOff() *Eval {
	e := AcquireEval()
	return e
}

// session outlives the function; the release duty moves with it.
type session struct{ e *Eval }

// Clean: ownership escapes into a longer-lived struct.
func store(s *session) {
	e := AcquireEval()
	s.e = e
}

// EvalF32 stands in for ag.EvalF32: the reduced-precision session
// handle. The analyzer matches by the Acquire<X>/Release<X> naming
// pair, so the f32 session is covered by the same rule with no
// analyzer change — these fixtures pin that.
type EvalF32 struct{ live int }

func AcquireEvalF32() *EvalF32  { return &EvalF32{} }
func ReleaseEvalF32(e *EvalF32) { e.live = 0 }

// Flagged: f32 session acquired, used, never released.
func leakF32(work func(*EvalF32) int) int {
	e := AcquireEvalF32() // want `result of AcquireEvalF32 is never released with ReleaseEvalF32`
	return work(e)
}

// Flagged: f32 session leaks on the error path.
func leakF32OnErrPath(fail bool, work func(*EvalF32) int) int {
	e := AcquireEvalF32() // want `not released with ReleaseEvalF32 on the return path`
	if fail {
		return -1
	}
	n := work(e)
	ReleaseEvalF32(e)
	return n
}

// Clean: the release pair is tier-specific — ReleaseEvalF32 for the
// f32 session, deferred to cover every path.
func deferredF32(fail bool, work func(*EvalF32) int) int {
	e := AcquireEvalF32()
	defer ReleaseEvalF32(e)
	if fail {
		return -1
	}
	return work(e)
}

// Session stands in for a generic session type (one type per element
// type): an explicitly instantiated acquire is tracked like a plain one.
type Session[E any] struct{ live int }

func AcquireSession[E any]() *Session[E]  { return &Session[E]{} }
func ReleaseSession[E any](s *Session[E]) { s.live = 0 }

// Flagged: generic session acquired through an instantiation, never
// released.
func leakGeneric[E any](work func(*Session[E]) int) int {
	s := AcquireSession[E]() // want `result of AcquireSession is never released with ReleaseSession`
	return work(s)
}

// Flagged: instantiated with a concrete type argument, leaks on the
// error path.
func leakGenericOnErrPath(fail bool, work func(*Session[float32]) int) int {
	s := AcquireSession[float32]() // want `not released with ReleaseSession on the return path`
	if fail {
		return -1
	}
	n := work(s)
	ReleaseSession(s)
	return n
}

// Clean: generic acquire with a deferred, explicitly instantiated
// release.
func deferredGeneric[E any](work func(*Session[E]) int) int {
	s := AcquireSession[E]()
	defer ReleaseSession[E](s)
	return work(s)
}

// Pair stands in for a session with two type parameters (an index
// list instantiation).
type Pair[K, V any] struct{ live int }

func AcquirePair[K, V any]() *Pair[K, V]  { return &Pair[K, V]{} }
func ReleasePair[K, V any](p *Pair[K, V]) { p.live = 0 }

// Flagged: index-list instantiation, never released.
func leakPair(work func(*Pair[int, string]) int) int {
	p := AcquirePair[int, string]() // want `result of AcquirePair is never released with ReleasePair`
	return work(p)
}
