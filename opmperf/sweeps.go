package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/sparse"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/twin"
)

// The sweep workload, exact-sparse, runs the exact per-access
// simulation behind the paper's fig9–11/17–19 under sweep.Map, with no
// store: matrix generation and irregular gathers. A job is one matrix
// on one platform, evaluated on every mode of that platform's machine
// set, exactly as the harness runners do it; a cell is one (matrix,
// mode) pair.

var (
	platforms     = []string{"broadwell", "knl"}
	sparseKernels = []string{"SpMV", "SpTRANS", "SpTRSV"}
	curveKernels  = []string{"Stream", "Stencil", "FFT"}
)

// sizes scales a run. fullSizes is what the benchmark measures; the
// self-tests use tiny ones.
type sizes struct {
	strata    int              // footprint strata per (platform, kernel)
	sparseCap map[string]int64 // largest paper-scale matrix footprint
	minPasses int

	serve serveSizes
}

var fullSizes = sizes{
	strata: 6,
	// Caps keep any one job from dominating a pass, and a pass short
	// enough that a run holds several. Broadwell's reach past its 128 MB
	// eDRAM cliff; KNL's past its 32 MB L2 cliff. The 16 GB MCDRAM cliff
	// would need 256 MB simulated per cell and is out of reach at any
	// cap that lets a run finish.
	sparseCap: map[string]int64{"broadwell": 160 << 20, "knl": 256 << 20},
	minPasses: 2,
	serve:     fullServe,
}

// sweepJob is one matrix on one platform.
type sweepJob struct {
	spec   *harness.CurveSpec
	kernel string
	matrix sparse.Spec
}

// workload builds the job's trace workload, generating the matrix
// through Spec.Checked.
func (j sweepJob) workload(sp *spans) (trace.Workload, error) {
	t0 := time.Now()
	m, err := j.matrix.Checked(j.spec.Platform.Scale)
	sp.add("sparse.gen", time.Since(t0))
	if err != nil {
		return nil, err
	}
	switch j.kernel {
	case "SpMV":
		return &trace.SpMV{M: m}, nil
	case "SpTRANS":
		return &trace.SpTRANS{M: m}, nil
	}
	return trace.NewSpTRSV(m)
}

// jobOut is one finished job.
type jobOut struct {
	Kernel   string
	Input    string
	Platform string
	Results  []memsim.Result // one per mode, in machine-set order

	counts     cellCounts
	sp         *spans
	worker     int           // the sweep worker that ran it
	start, end time.Duration // offsets from the sweep's start
}

// passOut is one sweep over every job.
type passOut struct {
	wall    time.Duration
	jobs    []jobOut
	digest  string
	counts  cellCounts
	cells   int
	sp      *spans
	traced  bool
	errText []string
}

// setupSweep is the set-up a sweep pass runs on: both platforms' machine
// sets, as harness.NewCurveSpec builds them for the figures, and the
// seeded job list over them.
func setupSweep(seed uint64, sz sizes) ([]sweepJob, error) {
	specs := map[string]*harness.CurveSpec{}
	for _, p := range platforms {
		spec, err := harness.NewCurveSpec(p)
		if err != nil {
			return nil, err
		}
		specs[p] = spec
	}
	return sparseJobs(seed, specs, sz), nil
}

func newRNG(seed uint64, workload string) *rand.Rand {
	var salt uint64
	for _, c := range workload {
		salt = salt*131 + uint64(c)
	}
	return rand.New(rand.NewPCG(seed, salt))
}

// exact-sparse draws its inputs by stratified antithetic sampling:
// each (platform, kernel) range is cut into strata, and the seed draws a
// position u in each, which places one input at u and one at 1-u. Every
// input is still uniform over its stratum, but a pass's total work
// hardly moves with the seed — a job's cost grows with its footprint,
// and the pair's costs move in opposite directions — so the end-to-end
// figures of different seeds are comparable.
//
// The balance holds for the total, not for quantiles: a job's cost also
// depends on its matrix's structure, so whichever jobs land next to the
// median move cell_p50_ms by 10-30% from seed to seed. The upper two
// thirds of the strata, which hold the jobs that set cell_p50_ms and
// cell_p90_ms, therefore sit at fixed positions (u = 1/4); only the
// lowest third, the smallest jobs, moves with the seed.
func antithetic(rng *rand.Rand, strata int) []float64 {
	var us []float64
	for s := 0; s < strata; s++ {
		u := rng.Float64()
		if s >= strata-2*strata/3 {
			u = 0.25
		}
		us = append(us, (float64(s)+u)/float64(strata), (float64(s)+1-u)/float64(strata))
	}
	return us
}

// sparseJobs draws matrices for every (platform, kernel) from the
// eligible ones sorted by footprint; the collection's footprints are
// log-uniform, so equal-count strata are log-uniform too.
func sparseJobs(seed uint64, specs map[string]*harness.CurveSpec, sz sizes) []sweepJob {
	rng := newRNG(seed, "exact-sparse")
	var jobs []sweepJob
	for _, p := range platforms {
		eligible := sparse.FilterMaxFootprint(sparse.Collection(), sz.sparseCap[p])
		sort.SliceStable(eligible, func(a, b int) bool { return eligible[a].PaperFootprint < eligible[b].PaperFootprint })
		for _, k := range sparseKernels {
			for _, u := range antithetic(rng, sz.strata) {
				m := eligible[min(int(u*float64(len(eligible))), len(eligible)-1)]
				jobs = append(jobs, sweepJob{spec: specs[p], kernel: k, matrix: m})
			}
		}
	}
	return largestFirst(jobs)
}

// largestFirst orders jobs by descending footprint, so the last jobs of
// a pass are short and the two-worker tail does not depend on the
// seed's draw order.
func largestFirst(jobs []sweepJob) []sweepJob {
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].matrix.PaperFootprint > jobs[b].matrix.PaperFootprint })
	return jobs
}

// evalCell evaluates one (input, mode) cell on the worker's pooled
// simulator. Untraced, it is the estimator call the harness makes;
// traced, it makes the same calls one layer down — Workload.Simulate,
// memsim.Evaluate, the invariant check and core.GateResult — with a
// span around each. The two must produce identical results.
func evalCell(ctx context.Context, w *sweep.Worker, m *core.Machine, wl trace.Workload, key string, sp *spans) (memsim.Result, *memsim.Sim, error) {
	if sp == nil {
		r, err := core.Exact.EstimateCell(ctx, nil, w, m, wl, key)
		if err != nil {
			return r, nil, err
		}
		sim, err := m.PooledSim(w)
		return r, sim, err
	}
	sim, err := m.PooledSim(w)
	if err != nil {
		return memsim.Result{}, nil, err
	}
	sim.Reset()
	fam := twin.Family(wl.Name())
	t0 := time.Now()
	wl.Simulate(sim)
	d := time.Since(t0)
	sp.add("simulate."+fam, d)
	sp.add("simulate."+m.Plat.Name+"."+m.Mode.String(), d)
	sp.count("accesses."+fam, int64(sim.Traffic().Accesses))

	props, err := m.WorkloadProps(wl)
	if err != nil {
		return memsim.Result{}, nil, err
	}
	cfg := m.Config()
	t0 = time.Now()
	r, err := memsim.Evaluate(&cfg, sim.Traffic(), props)
	sp.add("evaluate", time.Since(t0))
	if err != nil {
		return memsim.Result{}, nil, fmt.Errorf("core: %s on %s: %w", wl.Name(), m.Label(), err)
	}
	t0 = time.Now()
	if err := sim.CheckInvariants(); err != nil {
		return memsim.Result{}, nil, fmt.Errorf("%s: simulator invariant: %w", key, err)
	}
	err = core.GateResult(ctx, nil, key, &r)
	sp.add("gate", time.Since(t0))
	return r, sim, err
}

// sweepPass runs every job once under sweep.Map.
func sweepPass(ctx context.Context, jobs []sweepJob, traced bool) passOut {
	eng := &sweep.Engine{Workers: workers()}
	start := time.Now()
	outs, mapErr := sweep.Map(ctx, eng, jobs, func(ctx context.Context, w *sweep.Worker, j sweepJob) (jobOut, error) {
		t0 := time.Now()
		out := jobOut{Kernel: j.kernel, Input: j.matrix.Name, Platform: j.spec.Platform.Name}
		if traced {
			out.sp = newSpans()
		}
		wl, err := j.workload(out.sp)
		if err != nil {
			return out, err
		}
		for _, m := range j.spec.Machines {
			key := fmt.Sprintf("%s|%s|%s", j.kernel, out.Input, m.Label())
			r, sim, err := evalCell(ctx, w, m, wl, key, out.sp)
			if err != nil {
				return out, err
			}
			out.Results = append(out.Results, r)
			out.counts.addSim(sim)
		}
		out.worker = w.ID()
		out.start, out.end = t0.Sub(start), time.Since(start)
		out.sp.add("job", out.end-out.start)
		return out, nil
	})
	p := passOut{wall: time.Since(start), jobs: outs, traced: traced}
	if traced {
		p.sp = newSpans()
	}
	var parts [][]byte
	for i, o := range outs {
		b, err := json.Marshal(o)
		if err != nil {
			p.errText = append(p.errText, fmt.Sprintf("job %d: encoding results: %v", i, err))
		}
		parts = append(parts, b)
		p.counts.add(o.counts)
		p.cells += len(o.Results)
		p.sp.merge(o.sp)
	}
	if errs, ok := mapErr.(sweep.Errors); ok {
		for _, e := range errs {
			p.errText = append(p.errText, e.Error())
		}
	} else if mapErr != nil {
		p.errText = append(p.errText, mapErr.Error())
	}
	p.digest = digestOf(parts)
	return p
}

// setupReps is how many times each pass's set-up is repeated; setup_s
// is the median over every repetition of the run. A set-up takes 0.1-2
// ms, so one sample per pass would be mostly timer and cache noise.
const setupReps = 5

// runExactSparse repeats set-up and a pass over its job list while the
// next pass, expected to take as long as the last, still ends within
// the budget. A traced run follows each untraced pass with a traced
// one, so the two see the same inputs. Every pass must reproduce the
// first one's digest and counts exactly.
//
// Every pass runs the same jobs, so each job's time is taken as its
// median over the run's passes, and the throughputs use the median
// pass wall time. On a shared cloud VM the host's speed moves by up to
// 1.8x in regimes of 10-60 s under other tenants' load. A run holds
// about a dozen 4-5 s passes, and the fastest of a dozen samples is an
// extreme value that moves more from run to run than their median: over
// 55 s windows of one 300 s run, the median-based p50, p90 and wall
// varied by 6, 4 and 5% (coefficient of variation), the best-based ones
// by 8, 9 and 8%.
func runExactSparse(ctx context.Context, rc runConfig, sz sizes) (*outcome, error) {
	var un, tr []passOut
	var setups []float64
	var jobs []sweepJob
	var last time.Duration
	start := time.Now()
	for len(un) < sz.minPasses || time.Since(start)+last < rc.budget {
		passStart := time.Now()
		// Collecting the last pass's simulators first keeps peak RSS a
		// property of one pass, not of when the collector ran.
		runtime.GC()
		for i := 0; i < setupReps; i++ {
			t0 := time.Now()
			var err error
			if jobs, err = setupSweep(rc.seed, sz); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		un = append(un, sweepPass(ctx, jobs, false))
		if rc.traced {
			runtime.GC()
			tr = append(tr, sweepPass(ctx, jobs, true))
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		last = time.Since(passStart)
	}
	out := &outcome{digest: un[0].digest, counts: un[0].counts.flat()}
	for i, p := range append(un, tr...) {
		out.attempted += len(jobs)
		for _, e := range p.errText {
			out.fail("pass %d: %s", i, e)
		}
		if p.digest != out.digest {
			out.fail("pass %d (traced=%v) digest %s differs from the first pass's %s", i, p.traced, p.digest, out.digest)
		}
		if p.counts != un[0].counts {
			out.fail("pass %d (traced=%v) exact counts differ from the first pass's", i, p.traced)
		}
	}

	hostRuns := make([][]float64, len(jobs)) // host time per job, per pass
	doneRuns := make([][]float64, len(jobs)) // completion offset per job, per pass
	var walls []float64
	for _, p := range un {
		walls = append(walls, p.wall.Seconds())
		for i, j := range p.jobs {
			hostRuns[i] = append(hostRuns[i], ms(j.end-j.start))
			doneRuns[i] = append(doneRuns[i], ms(j.end))
		}
	}
	host := make([]float64, len(jobs)) // median host time per job
	done := make([]float64, len(jobs)) // median completion offset per job
	for i := range jobs {
		host[i], done[i] = median(hostRuns[i]), median(doneRuns[i])
	}
	wall := median(walls)
	out.e2e = map[string]metric{
		"setup_s":       {median(setups), "s"},
		"cells_per_s":   {float64(un[0].cells) / wall, "cells/s"},
		"cell_p50_ms":   {quantile(host, 0.5), "ms"},
		"cell_p90_ms":   {quantile(host, 0.9), "ms"},
		"query_p50_ms":  {quantile(done, 0.5), "ms"},
		"query_p99_ms":  {quantile(done, 0.99), "ms"},
		"queries_per_s": {float64(len(jobs)) / wall, "queries/s"},
	}
	if rc.traced {
		out.layer = sweepLayers(un, tr, un[0].counts)
	}
	return out, nil
}

// dispatchWait sums, over a pass's jobs, the gap between a job's start
// and the end of the job before it on the same worker (or the sweep's
// start, for a worker's first job): the time the sweep layer spends
// handing out work, free of queueing behind other jobs.
func dispatchWait(jobs []jobOut) float64 {
	byWorker := map[int][]jobOut{}
	for _, j := range jobs {
		byWorker[j.worker] = append(byWorker[j.worker], j)
	}
	var wait float64
	for _, js := range byWorker {
		sort.Slice(js, func(a, b int) bool { return js[a].start < js[b].start })
		var prev time.Duration
		for _, j := range js {
			wait += ms(j.start - prev)
			prev = j.end
		}
	}
	return wait
}

// sweepLayers derives the per-layer metrics of a traced sweep run,
// per pass, from its traced passes.
func sweepLayers(un, tr []passOut, c cellCounts) map[string]metric {
	sp := newSpans()
	var trWall, unWall time.Duration
	var njobs int
	var wait float64
	for _, p := range tr {
		sp.merge(p.sp)
		trWall += p.wall
		njobs += len(p.jobs)
		wait += dispatchWait(p.jobs)
	}
	for _, p := range un[:len(tr)] {
		unWall += p.wall
	}
	n := float64(len(tr))
	jobSec := sp.dur["job"].Seconds()
	busy := float64(workers()) * trWall.Seconds()

	l := layerDefaults()
	l["bench.trace_overhead"] = metric{trWall.Seconds() / unWall.Seconds(), "ratio"}
	l["sparse.gen_s"] = metric{sp.dur["sparse.gen"].Seconds() / n, "s"}
	l["sparse.gen_share"] = metric{ratio(sp.dur["sparse.gen"].Seconds(), jobSec), "ratio"}
	simLayers(l, sp, n)
	l["sweep.utilization"] = metric{jobSec / busy, "ratio"}
	l["sweep.overhead_us_per_job"] = metric{(busy - jobSec) / float64(njobs) * 1e6, "us"}
	l["sweep.wait_ms"] = metric{wait / float64(njobs), "ms"}
	c.layers(l)
	return l
}
