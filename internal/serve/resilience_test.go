package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// stubEstimator stands in for the exact estimator on the cold path. It
// keeps the exact estimator's identity (and so its digests), and every
// EstimateCell call runs cell, which decides whether the call panics,
// outlives its deadline, fails or succeeds.
type stubEstimator struct {
	core.ExactEstimator
	cell func(ctx context.Context) error
}

func (e stubEstimator) EstimateCell(ctx context.Context, _ *sweep.Engine, _ *sweep.Worker, _ *core.Machine, _ trace.Workload, _ string) (memsim.Result, error) {
	if err := e.cell(ctx); err != nil {
		return memsim.Result{}, err
	}
	return memsim.Result{GFlops: 1}, nil
}

// TestServeResilience drives the cold path's resilience policy through
// the real mux: panics, per-attempt deadlines and the per-family
// circuit breaker each map onto their status code and count under
// resilience/*, and none of them takes the daemon down.
func TestServeResilience(t *testing.T) {
	start := func(t *testing.T, pol *resilience.Policy, cell func(ctx context.Context) error) (http.Handler, *obs.Registry) {
		t.Helper()
		reg := obs.NewRegistry()
		srv, err := New(Config{Registry: reg, Policy: pol, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		srv.estimators["exact"] = stubEstimator{cell: cell}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := srv.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
		})
		return srv.Handler(), reg
	}
	// Each query names a fresh footprint: a success lands in the hot
	// set, and a repeat would never reach the executor again.
	var fp atomic.Int64
	query := func(t *testing.T, h http.Handler) *httptest.ResponseRecorder {
		t.Helper()
		return postQuery(t, h, "/v1/query", QueryRequest{Platform: "broadwell", Mode: "edram",
			Kernel: "Stream", Footprint: (1 + fp.Add(1)) << 20})
	}
	wantCode := func(t *testing.T, w *httptest.ResponseRecorder, code int) {
		t.Helper()
		if w.Code != code {
			t.Fatalf("status %d, want %d: %s", w.Code, code, w.Body)
		}
	}

	t.Run("panic", func(t *testing.T) {
		var calls atomic.Int64
		h, reg := start(t, nil, func(context.Context) error {
			if calls.Add(1) == 1 {
				panic("trace generator overran its buffer")
			}
			return nil
		})
		wantCode(t, query(t, h), http.StatusInternalServerError)
		wantCode(t, query(t, h), http.StatusOK)
		if v := reg.Counter("sweep/job_panics").Value(); v != 1 {
			t.Fatalf("sweep/job_panics = %d, want 1", v)
		}
	})

	t.Run("deadline", func(t *testing.T) {
		h, reg := start(t, &resilience.Policy{JobTimeout: 20 * time.Millisecond}, func(ctx context.Context) error {
			// Bounded, so a path that ignores JobTimeout answers 200
			// instead of hanging the test.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(2 * time.Second):
				return nil
			}
		})
		wantCode(t, query(t, h), http.StatusGatewayTimeout)
		if v := reg.Counter("resilience/job_deadline_exceeded").Value(); v == 0 {
			t.Fatal("resilience/job_deadline_exceeded not counted")
		}
	})

	t.Run("breaker", func(t *testing.T) {
		const threshold = 3
		h, reg := start(t, &resilience.Policy{BreakerThreshold: threshold}, func(context.Context) error {
			return errors.New("model diverged")
		})
		for i := 0; i < threshold; i++ {
			if w := query(t, h); w.Code == http.StatusOK || w.Code == http.StatusServiceUnavailable {
				t.Fatalf("failure %d: status %d before the breaker tripped", i+1, w.Code)
			}
		}
		wantCode(t, query(t, h), http.StatusServiceUnavailable)
		if v := reg.Counter("resilience/breaker_trips").Value(); v != 1 {
			t.Fatalf("resilience/breaker_trips = %d, want 1", v)
		}
		if v := reg.Counter("resilience/breaker_short_circuits").Value(); v == 0 {
			t.Fatal("resilience/breaker_short_circuits not counted")
		}
	})

	t.Run("cooldown", func(t *testing.T) {
		const cooldown = 20 * time.Millisecond
		var healthy atomic.Bool
		h, reg := start(t, &resilience.Policy{BreakerThreshold: 1, BreakerCooldown: cooldown}, func(context.Context) error {
			if !healthy.Load() {
				return errors.New("model diverged")
			}
			return nil
		})
		if w := query(t, h); w.Code == http.StatusOK {
			t.Fatal("failing cell answered 200")
		}
		wantCode(t, query(t, h), http.StatusServiceUnavailable)
		if v := reg.Counter("resilience/breaker_trips").Value(); v != 1 {
			t.Fatalf("resilience/breaker_trips = %d, want 1", v)
		}
		healthy.Store(true)
		time.Sleep(2 * cooldown)
		// The first query after the cooldown is the half-open probe;
		// its success closes the breaker, so the next is admitted too.
		wantCode(t, query(t, h), http.StatusOK)
		wantCode(t, query(t, h), http.StatusOK)
		if v := reg.Counter("resilience/breaker_trips").Value(); v != 1 {
			t.Fatalf("resilience/breaker_trips = %d after recovery, want 1", v)
		}
	})
}
