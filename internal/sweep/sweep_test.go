package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestMapPreservesSubmissionOrder checks results land at their job's
// index no matter how completion interleaves.
func TestMapPreservesSubmissionOrder(t *testing.T) {
	jobs := make([]int, 200)
	for i := range jobs {
		jobs[i] = i
	}
	e := &Engine{Workers: 8}
	out, err := Map(context.Background(), e, jobs, func(_ context.Context, _ *Worker, j int) (int, error) {
		// Stagger completion so later submissions often finish first.
		time.Sleep(time.Duration((j%7)*50) * time.Microsecond)
		return j * 3, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*3 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*3)
		}
	}
}

// TestMapCollectsPerJobErrors checks a failing job neither kills the
// sweep nor displaces its neighbours' results.
func TestMapCollectsPerJobErrors(t *testing.T) {
	jobs := []int{0, 1, 2, 3, 4, 5}
	sentinel := errors.New("bad matrix")
	out, err := Map(context.Background(), &Engine{Workers: 3}, jobs, func(_ context.Context, _ *Worker, j int) (int, error) {
		if j%3 == 1 {
			return 0, fmt.Errorf("cell %d: %w", j, sentinel)
		}
		return j + 100, nil
	})
	var errs Errors
	if !errors.As(err, &errs) {
		t.Fatalf("want Errors, got %T: %v", err, err)
	}
	if len(errs) != 2 || errs[0].Index != 1 || errs[1].Index != 4 {
		t.Fatalf("errs = %v", errs)
	}
	if !errors.Is(err, sentinel) {
		t.Fatal("Errors should unwrap to the job's cause")
	}
	for _, i := range []int{0, 2, 3, 5} {
		if out[i] != i+100 {
			t.Fatalf("surviving job %d lost its result: %d", i, out[i])
		}
	}
	kept, errs2, err2 := Compact(out, err)
	if err2 != nil {
		t.Fatalf("Compact should survive job failures: %v", err2)
	}
	if len(kept) != 4 || len(errs2) != 2 {
		t.Fatalf("Compact kept %d results, %d errors", len(kept), len(errs2))
	}
}

// TestMapRecoversPanics checks a panicking job is contained as its own
// error.
func TestMapRecoversPanics(t *testing.T) {
	out, err := Map(context.Background(), &Engine{Workers: 2}, []int{0, 1, 2}, func(_ context.Context, _ *Worker, j int) (string, error) {
		if j == 1 {
			panic("buffer overrun")
		}
		return "ok", nil
	})
	var errs Errors
	if !errors.As(err, &errs) || len(errs) != 1 || errs[0].Index != 1 {
		t.Fatalf("want one JobError at index 1, got %v", err)
	}
	if !errors.Is(errs[0], ErrPanic) {
		t.Fatalf("contained panic %v does not match ErrPanic", errs[0])
	}
	if out[0] != "ok" || out[2] != "ok" {
		t.Fatalf("panic poisoned neighbouring jobs: %v", out)
	}
}

// TestMapCancellationIsPrompt checks a cancelled sweep stops quickly,
// keeps the results already computed, and marks the rest with the
// context error.
func TestMapCancellationIsPrompt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := make([]int, 500)
	for i := range jobs {
		jobs[i] = i
	}
	var started atomic.Int64
	begin := time.Now()
	out, err := Map(ctx, &Engine{Workers: 2}, jobs, func(ctx context.Context, _ *Worker, j int) (int, error) {
		if started.Add(1) == 4 {
			cancel()
		}
		select {
		case <-time.After(2 * time.Millisecond):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
		return j + 1, nil
	})
	if elapsed := time.Since(begin); elapsed > 3*time.Second {
		t.Fatalf("cancelled sweep took %v", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in %v", err)
	}
	var errs Errors
	if !errors.As(err, &errs) || !errs.Canceled() {
		t.Fatalf("want cancellation-marked Errors, got %v", err)
	}
	if len(errs) == len(jobs) {
		t.Fatal("no job completed before cancellation")
	}
	completed := 0
	for _, v := range out {
		if v != 0 {
			completed++
		}
	}
	if completed == 0 {
		t.Fatal("partial results lost")
	}
	if _, _, err := Compact(out, err); !errors.Is(err, context.Canceled) {
		t.Fatalf("Compact must treat cancellation as fatal, got %v", err)
	}
}

// TestWorkerPoolReusesResources checks Get builds once per worker and
// Drop forces a rebuild.
func TestWorkerPoolReusesResources(t *testing.T) {
	var builds atomic.Int64
	jobs := make([]int, 20)
	for i := range jobs {
		jobs[i] = i
	}
	_, err := Map(context.Background(), &Engine{Workers: 1}, jobs, func(_ context.Context, w *Worker, j int) (int, error) {
		v, err := w.Get("sim", func() (any, error) {
			builds.Add(1)
			return new(int), nil
		})
		if err != nil {
			return 0, err
		}
		*(v.(*int))++
		if j == 9 {
			w.Drop("sim")
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := builds.Load(); got != 2 {
		t.Fatalf("resource built %d times, want 2 (initial + post-Drop)", got)
	}
}

// TestProgressReporting checks every completion is reported and the
// final report covers the whole sweep.
func TestProgressReporting(t *testing.T) {
	var calls int
	var last Progress
	e := &Engine{Workers: 4, Progress: func(p Progress) {
		calls++
		last = p
	}}
	jobs := make([]int, 37)
	if _, err := Map(context.Background(), e, jobs, func(_ context.Context, _ *Worker, j int) (int, error) {
		return j, nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != len(jobs) {
		t.Fatalf("progress called %d times, want %d", calls, len(jobs))
	}
	if last.Done != len(jobs) || last.Total != len(jobs) {
		t.Fatalf("final progress %+v", last)
	}
}

// TestETAIsGuardedAndSmoothed pins the ETA contract: unknown (zero)
// on the first completed job of a sweep — one sample is not a trend —
// positive mid-sweep, zero again at completion, and never negative.
func TestETAIsGuardedAndSmoothed(t *testing.T) {
	reg := obs.NewRegistry()
	var reports []Progress
	e := &Engine{Workers: 1, Obs: reg, Progress: func(p Progress) {
		reports = append(reports, p)
	}}
	jobs := make([]int, 8)
	if _, err := Map(context.Background(), e, jobs, func(_ context.Context, _ *Worker, j int) (int, error) {
		time.Sleep(2 * time.Millisecond)
		return j, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(jobs) {
		t.Fatalf("%d reports, want %d", len(reports), len(jobs))
	}
	for _, p := range reports {
		if p.ETA < 0 {
			t.Fatalf("negative ETA: %+v", p)
		}
		switch {
		case p.Done < minETAJobs:
			if p.ETA != 0 {
				t.Fatalf("ETA %v extrapolated from %d job(s)", p.ETA, p.Done)
			}
		case p.Done == p.Total:
			if p.ETA != 0 {
				t.Fatalf("finished sweep still reports ETA %v", p.ETA)
			}
		default:
			if p.ETA == 0 {
				t.Fatalf("mid-sweep report lost its ETA: %+v", p)
			}
		}
	}
	// The last mid-sweep ETA also lands in the gauge before the final
	// report zeroes it.
	if got := reg.Gauge("sweep/eta_seconds").Value(); got != 0 {
		t.Fatalf("eta gauge not cleared at completion: %v", got)
	}
}

// TestMapRecordsTelemetry checks the engine's registry metrics: job
// and error counters, latency/queue-wait histograms, and a worker
// utilization in (0, 1].
func TestMapRecordsTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	e := &Engine{Workers: 2, Obs: reg}
	jobs := make([]int, 12)
	for i := range jobs {
		jobs[i] = i
	}
	_, err := Map(context.Background(), e, jobs, func(_ context.Context, _ *Worker, j int) (int, error) {
		time.Sleep(time.Millisecond)
		switch j {
		case 3:
			return 0, errors.New("bad cell")
		case 7:
			panic("modelled segfault")
		}
		return j, nil
	})
	var errs Errors
	if !errors.As(err, &errs) || len(errs) != 2 {
		t.Fatalf("want 2 job errors, got %v", err)
	}
	if got := reg.Counter("sweep/jobs").Value(); got != int64(len(jobs)) {
		t.Fatalf("sweep/jobs = %d, want %d", got, len(jobs))
	}
	if got := reg.Counter("sweep/job_errors").Value(); got != 2 {
		t.Fatalf("sweep/job_errors = %d, want 2", got)
	}
	if got := reg.Counter("sweep/job_panics").Value(); got != 1 {
		t.Fatalf("sweep/job_panics = %d, want 1", got)
	}
	if got := reg.Histogram("sweep/job_latency").Count(); got != int64(len(jobs)) {
		t.Fatalf("job_latency count = %d, want %d", got, len(jobs))
	}
	if got := reg.Histogram("sweep/queue_wait").Count(); got != int64(len(jobs)) {
		t.Fatalf("queue_wait count = %d, want %d", got, len(jobs))
	}
	if util := reg.Gauge("sweep/worker_utilization").Value(); util <= 0 || util > 1 {
		t.Fatalf("worker utilization %v outside (0, 1]", util)
	}
}

// TestEngineDefaults checks the zero Engine and empty job lists work.
func TestEngineDefaults(t *testing.T) {
	out, err := Map[int, int](context.Background(), nil, nil, func(_ context.Context, _ *Worker, j int) (int, error) {
		return j, nil
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty sweep: %v %v", out, err)
	}
	var e Engine
	if n := e.workerCount(3); n < 1 || n > 3 {
		t.Fatalf("workerCount(3) = %d", n)
	}
	if n := (&Engine{Workers: 16}).workerCount(4); n != 4 {
		t.Fatalf("workerCount should clamp to job count, got %d", n)
	}
}
