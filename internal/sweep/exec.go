package sweep

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// ErrPanic is the sentinel every contained job panic wraps: a
// panicking cell (e.g. a buffer bounds violation in a trace generator)
// fails with an error matching errors.Is(err, ErrPanic) instead of
// killing the sweep, the shard worker or the serving daemon.
var ErrPanic = errors.New("sweep: job panicked")

// Executor is the single-job executor every cell in the repo runs
// through: Map (one Executor, hence one breaker, per sweep), the serve
// daemon's cold path (one per kernel family) and the shard workers (a
// nil Executor). It applies a resilience policy — the breaker gate,
// up to Attempts() tries, each with its own attempt-stamped and, with
// JobTimeout, deadline-bounded context, separated by deterministic
// backoff sleeps — fires the fault injector's "job" point before each
// attempt, and contains panics. Safe for concurrent use.
type Executor struct {
	policy  *resilience.Policy
	inject  *faultinject.Injector
	breaker *resilience.Breaker
	// armed is false on the production fast path (nil policy, nil
	// injector): no attempt events are traced and no resilience/*
	// counters are registered, so such a run emits exactly what a bare
	// recover-wrapped call would.
	armed bool

	panics    *obs.Counter // sweep/job_panics: attempts that panicked
	retries   *obs.Counter // resilience/retries: attempts beyond the first
	exhausted *obs.Counter // resilience/retry_exhausted: retryable jobs dropped after the last attempt
	quarant   *obs.Counter // resilience/quarantined: results rejected by the validation gate
	deadline  *obs.Counter // resilience/job_deadline_exceeded: attempts that outlived JobTimeout
	trips     *obs.Counter // resilience/breaker_trips: breakers opened
	shorted   *obs.Counter // resilience/breaker_short_circuits: jobs failed fast by an open breaker
}

// NewExecutor builds an executor for pol and inj (either may be nil)
// with its own circuit breaker, counting into reg (nil = no
// telemetry).
func NewExecutor(pol *resilience.Policy, inj *faultinject.Injector, reg *obs.Registry) *Executor {
	x := &Executor{
		policy:  pol,
		inject:  inj,
		breaker: pol.NewBreaker(),
		armed:   pol != nil || inj != nil,
		panics:  reg.Counter("sweep/job_panics"),
	}
	if x.armed {
		x.retries = reg.Counter("resilience/retries")
		x.exhausted = reg.Counter("resilience/retry_exhausted")
		x.quarant = reg.Counter("resilience/quarantined")
		x.deadline = reg.Counter("resilience/job_deadline_exceeded")
		x.trips = reg.Counter("resilience/breaker_trips")
		x.shorted = reg.Counter("resilience/breaker_short_circuits")
	}
	return x
}

// bare is the executor a nil *Executor stands for: one attempt, panic
// containment, nothing else. Never mutated.
var bare Executor

// Run executes one job on x: fn(ctx, w, job) under the breaker gate,
// the attempt loop and panic containment. key identifies the job to
// the fault injector and the backoff jitter. Whole-run cancellation
// (ctx done) surfaces as the context error and leaves the breaker
// alone; a cancelled backoff never re-submits the retry. A nil x runs
// fn once with panic containment only.
func Run[J, R any](ctx context.Context, x *Executor, w *Worker, key string, job J, fn func(context.Context, *Worker, J) (R, error)) (R, error) {
	if x == nil {
		x = &bare
	}
	var zero R
	if !x.breaker.Allow() {
		x.shorted.Inc()
		obs.TraceEvent(ctx, obs.EvBreakerOpen, "short_circuit")
		return zero, resilience.ErrBreakerOpen
	}
	attempts := x.policy.Attempts()
	timeout := x.policy.Timeout()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if x.armed {
			obs.TraceEvent(ctx, obs.EvAttempt, strconv.Itoa(attempt+1))
		}
		actx := resilience.WithAttempt(ctx, attempt)
		cancel := context.CancelFunc(func() {})
		if timeout > 0 {
			actx, cancel = context.WithTimeout(actx, timeout)
		}
		r, err := try(actx, x, w, key, job, fn)
		// Attribute attempt-deadline expiry (parent still alive) to the
		// policy: the failure is retryable, and a success that arrived
		// only after its deadline is no success at all.
		if timeout > 0 && actx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
			err = &resilience.TimeoutError{Attempt: attempt, Limit: timeout}
			x.deadline.Inc()
		}
		cancel()
		if err == nil {
			x.breaker.Success()
			return r, nil
		}
		lastErr = err
		if resilience.IsQuarantine(err) {
			x.quarant.Inc()
		}
		if ctx.Err() != nil {
			return zero, err
		}
		if !resilience.Retryable(err) {
			break
		}
		if attempt+1 >= attempts {
			if attempts > 1 {
				x.exhausted.Inc()
			}
			break
		}
		backoff := x.policy.Backoff(key, attempt+1)
		obs.TraceEventDur(ctx, obs.EvRetry, backoff, err.Error())
		if serr := x.policy.SleepBackoff(ctx, backoff); serr != nil {
			return zero, serr
		}
		x.retries.Inc()
	}
	if x.breaker.Failure() {
		x.trips.Inc()
		obs.TraceEvent(ctx, obs.EvBreakerOpen, "tripped")
	}
	return zero, lastErr
}

// try is one attempt: the injector's "job" point, then fn, both inside
// the recover scope so injected panics are contained like real ones —
// but classified transient (an InjectedPanic heals on retry, a real
// panic is a deterministic bug that would only panic again).
func try[J, R any](ctx context.Context, x *Executor, w *Worker, key string, job J, fn func(context.Context, *Worker, J) (R, error)) (r R, err error) {
	defer func() {
		if p := recover(); p != nil {
			x.panics.Inc()
			if ip, ok := p.(faultinject.InjectedPanic); ok {
				err = resilience.MarkTransient(fmt.Errorf("%w: %s", ErrPanic, ip))
				return
			}
			err = fmt.Errorf("%w: %v", ErrPanic, p)
		}
	}()
	if ferr := x.inject.Job(ctx, key); ferr != nil {
		return r, ferr
	}
	return fn(ctx, w, job)
}
