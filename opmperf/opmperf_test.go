package main

import (
	"context"
	"math"
	"testing"
	"time"
)

// tinySizes runs every workload in a second or two: one antithetic pair
// per (platform, kernel), a few serve rounds, and the minimum two
// passes (the budget is zero).
var tinySizes = sizes{
	strata:    1,
	sparseCap: map[string]int64{"broadwell": 8 << 20, "knl": 8 << 20},
	minPasses: 2,
	serve: serveSizes{
		rounds:       60,
		hotSet:       8,
		storedCurves: 2,
		coldCurves:   1,
		storedDense:  8,
		coldDense:    2,
		bulkDense:    20,
		twinFirstPct: 10,
		curveCap:     map[string]int64{"broadwell": 2 << 20, "knl": 16 << 20},
	},
}

func run(t *testing.T, w workload, seed uint64, traced bool, sz sizes) *outcome {
	t.Helper()
	rc := runConfig{seed: seed, traced: traced, scratch: t.TempDir()}
	out, err := w.run(context.Background(), rc, sz)
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", w.name, seed, traced, err)
	}
	if out.failed != 0 {
		t.Fatalf("%s seed %d traced=%v: %d of %d operations failed: %q", w.name, seed, traced, out.failed, out.attempted, out.problems)
	}
	return out
}

func sameCounts(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestWorkloadsRepeat runs each workload at a tiny size and checks that
// counts and digests repeat across runs of one seed, that a traced run
// reproduces the untraced digest and counts, and that another seed
// gives other inputs.
func TestWorkloadsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := run(t, w, 1, false, tinySizes)
			b := run(t, w, 1, false, tinySizes)
			if a.digest != b.digest {
				t.Errorf("digest %s then %s for one seed", a.digest, b.digest)
			}
			if !sameCounts(a.counts, b.counts) {
				t.Errorf("counts %v then %v for one seed", a.counts, b.counts)
			}
			tr := run(t, w, 1, true, tinySizes)
			if tr.digest != a.digest || !sameCounts(tr.counts, a.counts) {
				t.Errorf("traced run: digest %s counts %v, untraced: digest %s counts %v", tr.digest, tr.counts, a.digest, a.counts)
			}
			if len(tr.layer) != len(layerDefaults()) {
				t.Errorf("traced run reports %d per-layer metrics, want %d", len(tr.layer), len(layerDefaults()))
			}
			if c := run(t, w, 2, false, tinySizes); c.digest == a.digest {
				t.Errorf("seeds 1 and 2 give the same digest %s", a.digest)
			}
		})
	}
}

// TestServeMixSizedLoadAdmitsAll plays one full-size serve-mix pass:
// the default admission classes must answer every query without a 429.
func TestServeMixSizedLoadAdmitsAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size pass")
	}
	sz := tinySizes
	sz.serve = fullServe
	sz.minPasses = 1
	w, _ := findWorkload("serve-mix")
	out := run(t, w, 3, false, sz)
	if n := out.counts["serve.rejected"]; n != 0 {
		t.Fatalf("%d queries rejected with 429", n)
	}
	if out.counts["serve.store"] == 0 || out.counts["serve.computed"] == 0 || out.counts["serve.twin_first"] == 0 {
		t.Fatalf("the stream must mix store hits, cold computes and twin-first answers: %v", out.counts)
	}
}

// TestDispatchWait checks that sweep.wait_ms counts only the gaps
// between a worker's consecutive jobs, not time queued behind them.
func TestDispatchWait(t *testing.T) {
	ms := func(x float64) time.Duration { return time.Duration(x * 1e6) }
	jobs := []jobOut{
		{worker: 0, start: ms(1), end: ms(100)},
		{worker: 1, start: ms(2), end: ms(50)},
		{worker: 1, start: ms(53), end: ms(90)},
		{worker: 0, start: ms(104), end: ms(120)},
	}
	if got, want := dispatchWait(jobs), 1.0+2+3+4; math.Abs(got-want) > 1e-9 {
		t.Fatalf("dispatchWait = %g ms, want %g", got, want)
	}
}
