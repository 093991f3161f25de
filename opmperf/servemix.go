package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/twin"
)

// serve-mix drives an in-process opmserve handler with two closed-loop
// clients. The request stream is mostly Zipf repeats over a universe of
// cells larger than the hot set, so LRU evictions turn into journal
// reads; each cold cell is asked once per pass, some of them
// twin-first. Clients run in lock-step rounds: both send one request,
// the next round starts when both have their answers (and, after a
// twin-first query, when its background refinement has landed). The
// generator only emits rounds whose hot-set outcome is the same under
// every interleaving of the two requests, so the count of answers from
// each source repeats exactly from run to run.

type serveSizes struct {
	rounds       int
	hotSet       int
	storedCurves int // journaled curve cells per (platform, kernel)
	coldCurves   int // cold curve cells per (platform, kernel)
	storedDense  int // journaled dense cells in the query universe
	coldDense    int
	bulkDense    int // journaled dense cells no query asks for: replay work
	twinFirstPct int // share of warm curve queries sent twin-first
	curveCap     map[string]int64
}

// fullServe is the measured mix; README.md says which of its figures
// the workload's definition fixes and why the others were chosen.
var fullServe = serveSizes{
	rounds:       600,
	hotSet:       40,
	storedCurves: 4,
	coldCurves:   4,
	storedDense:  40,
	coldDense:    6,
	bulkDense:    2000,
	twinFirstPct: 10,
	// Capped so a cold cell costs milliseconds, not seconds.
	curveCap: map[string]int64{"broadwell": 16 << 20, "knl": 64 << 20},
}

// serveCell is one cell of the query universe.
type serveCell struct {
	req       serve.QueryRequest // identity; Mode is set for dense cells
	spec      *harness.CurveSpec
	modes     []string       // modes a query may name
	dense     *core.DenseJob // dense cells only
	digest    string         // exact store digest
	stored    bool           // journaled in set-up
	twinFirst bool           // cold cell whose first query is twin-first
}

func (c *serveCell) curve() bool { return c.req.Kernel != "" }

// cellModes is how many (input, mode) cells computing c produces.
func (c *serveCell) cellModes() int {
	if c.curve() {
		return len(c.spec.Machines)
	}
	return 1
}

type serveReq struct {
	cell int
	body []byte
	est  string
}

type serveInputs struct {
	cells  []*serveCell
	rounds [][2]serveReq
}

// serveUniverse draws the query universe and the bulk journal cells.
// Every cell is one the harness computes for a figure: curve cells sit
// on the curve figures' footprint grids, dense cells on the dense heat
// maps' (order, block) grid.
func serveUniverse(seed uint64, sz serveSizes) ([]*serveCell, []*serveCell, error) {
	rng := newRNG(seed, "serve-mix")
	var cells []*serveCell
	for _, p := range platforms {
		spec, err := harness.NewCurveSpec(p)
		if err != nil {
			return nil, nil, err
		}
		var modes []string
		for _, m := range spec.Machines {
			modes = append(modes, m.Mode.String())
		}
		grid := curveGrid(spec, sz.curveCap[p])
		if len(grid) < sz.storedCurves+sz.coldCurves {
			return nil, nil, fmt.Errorf("serve-mix: %s has %d curve footprints up to %d bytes, %d needed",
				p, len(grid), sz.curveCap[p], sz.storedCurves+sz.coldCurves)
		}
		// Cold cells sit at fixed, evenly spread grid points, so a pass
		// computes the same load on every seed; the seed picks the
		// stored cells among the other points, and moves the dense
		// cells, the popularity ranking, the arrival order and the modes
		// asked. The middle cold cell of each (platform, kernel) is
		// asked twin-first.
		coldAt := map[int]int{} // grid index -> cold cell number
		for i := 0; i < sz.coldCurves; i++ {
			coldAt[int((float64(i)+0.5)*float64(len(grid))/float64(sz.coldCurves))] = i
		}
		for _, k := range curveKernels {
			var warm []int
			for _, i := range rng.Perm(len(grid)) {
				if _, ok := coldAt[i]; !ok && len(warm) < sz.storedCurves {
					warm = append(warm, i)
				}
			}
			for i, fp := range grid {
				nCold, cold := coldAt[i]
				if !cold && !slices.Contains(warm, i) {
					continue
				}
				cells = append(cells, &serveCell{
					req:       serve.QueryRequest{Platform: p, Kernel: k, Footprint: fp},
					spec:      spec,
					modes:     modes,
					digest:    harness.CellDigest(core.Exact, harness.CurveSweepID(k), spec.ConfigHash(), harness.CurveCellKey(fp)),
					stored:    !cold,
					twinFirst: cold && nCold == sz.coldCurves/2,
				})
			}
		}
	}
	dense, err := denseCells(rng, sz.storedDense+sz.coldDense+sz.bulkDense)
	if err != nil {
		return nil, nil, err
	}
	for i, c := range dense[:sz.storedDense+sz.coldDense] {
		c.stored = i < sz.storedDense
		cells = append(cells, c)
	}
	return cells, dense[sz.storedDense+sz.coldDense:], nil
}

// curveGrid returns the paper-scale footprints the curve figures sweep
// on spec's platform, quick and full grids merged, up to maxFP.
func curveGrid(spec *harness.CurveSpec, maxFP int64) []int64 {
	var fps []int64
	for _, opt := range []harness.Options{{}, {Full: true}} {
		for _, fp := range spec.Footprints(opt) {
			if fp <= maxFP && !slices.Contains(fps, fp) {
				fps = append(fps, fp)
			}
		}
	}
	slices.Sort(fps)
	return fps
}

// denseGrid is the paper's dense (order, block) sweep (Appendix
// A.2.1/A.2.2) with the constants the harness's heat-map runner uses:
// orders 256..16128 step 512 on Broadwell and 256..32000 step 1024 on
// KNL, blocks 128..4096 step 128. The daemon answers only cells with
// nb <= n, so the others are left out.
func denseGrid(platform string) [][2]int {
	step, last := 512, 16128
	if platform == "knl" {
		step, last = 1024, 32000
	}
	var grid [][2]int
	for n := 256; n <= last; n += step {
		for nb := 128; nb <= 4096 && nb <= n; nb += 128 {
			grid = append(grid, [2]int{n, nb})
		}
	}
	return grid
}

// denseCells draws n distinct dense cells (kind, platform, mode, n, nb).
func denseCells(rng *rand.Rand, n int) ([]*serveCell, error) {
	type combo struct {
		kind      string
		p         string
		mode      memsim.Mode
		order, nb int
	}
	var all []combo
	specs := map[string]*harness.CurveSpec{}
	for _, p := range platforms {
		spec, err := harness.NewCurveSpec(p)
		if err != nil {
			return nil, err
		}
		specs[p] = spec
		for _, kind := range []string{"GEMM", "Cholesky"} {
			for _, m := range spec.Machines {
				for _, g := range denseGrid(p) {
					all = append(all, combo{kind, p, m.Mode, g[0], g[1]})
				}
			}
		}
	}
	rng.Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
	if n > len(all) {
		return nil, fmt.Errorf("serve-mix: %d dense cells requested, %d exist", n, len(all))
	}
	out := make([]*serveCell, n)
	for i, c := range all[:n] {
		spec := specs[c.p]
		mach, _ := spec.Machine(c.mode)
		kind := trace.DenseGEMM
		if c.kind == "Cholesky" {
			kind = trace.DenseCholesky
		}
		job := core.DenseJob{Machine: mach, Kind: kind, N: c.order, NB: c.nb}
		out[i] = &serveCell{
			req:    serve.QueryRequest{Platform: c.p, Mode: c.mode.String(), Kind: c.kind, N: c.order, NB: c.nb},
			spec:   spec,
			modes:  []string{c.mode.String()},
			dense:  &job,
			digest: harness.CellDigest(core.Exact, harness.DenseSweepID, "", harness.DenseKey(job)),
		}
	}
	return out, nil
}

// lruModel tracks what the generator can know about the daemon's LRU
// hot set under concurrent rounds. Keys touched in one round form a
// tier whose internal order is unknown; evictions take whole tiers from
// the cold end, and a tier only partly evicted leaves its members
// uncertain — the generator never asks for them again.
type lruModel struct {
	cap    int
	tiers  []*tier // oldest first
	tierOf map[int]*tier
}

type tier struct {
	members []int // keys attributed to the tier
	alive   int   // how many of them are still cached
}

func (m *lruModel) size() int {
	n := 0
	for _, t := range m.tiers {
		n += t.alive
	}
	return n
}

// state reports whether key k is cached and whether that is known.
func (m *lruModel) state(k int) (cached, known bool) {
	t, ok := m.tierOf[k]
	if !ok {
		return false, true
	}
	if t.alive == len(t.members) {
		return true, true
	}
	return false, false
}

// evictions returns how many entries a round of keys evicts, or -1 when
// its outcome depends on the interleaving.
func (m *lruModel) evictions(keys [2]int) int {
	if keys[0] == keys[1] {
		return -1
	}
	misses := 0
	for _, k := range keys {
		cached, known := m.state(k)
		if !known {
			return -1
		}
		if !cached {
			misses++
		}
	}
	e := m.size() + misses - m.cap
	if e <= 0 {
		return 0
	}
	// A requested key in a tier the evictions reach could be evicted
	// before or after its own request touches it.
	rem := e
	for _, t := range m.tiers {
		for _, k := range keys {
			if m.tierOf[k] == t {
				return -1
			}
		}
		if rem -= t.alive; rem <= 0 {
			break
		}
	}
	return e
}

func (m *lruModel) apply(keys [2]int, e int) {
	for _, k := range keys {
		if t, ok := m.tierOf[k]; ok {
			for i, x := range t.members {
				if x == k {
					t.members = append(t.members[:i], t.members[i+1:]...)
					break
				}
			}
			t.alive--
			delete(m.tierOf, k)
		}
	}
	kept := m.tiers[:0]
	for _, t := range m.tiers {
		take := min(e, t.alive)
		t.alive -= take
		e -= take
		if t.alive == 0 {
			for _, k := range t.members {
				delete(m.tierOf, k)
			}
			continue
		}
		kept = append(kept, t)
	}
	nt := &tier{members: []int{keys[0], keys[1]}, alive: 2}
	m.tiers = append(kept, nt)
	m.tierOf[keys[0]], m.tierOf[keys[1]] = nt, nt
}

// serveSchedule generates the seeded request stream.
func serveSchedule(seed uint64, cells []*serveCell, sz serveSizes) ([][2]serveReq, error) {
	rng := newRNG(seed, "serve-mix/stream")
	// Zipf popularity over a seeded ranking of the universe. Curve and
	// dense cells alternate down the ranking, so every seed sends the
	// same share of each kind: they take different paths through
	// serve.
	var byKind [2][]int
	for i, c := range cells {
		if c.curve() {
			byKind[0] = append(byKind[0], i)
		} else {
			byKind[1] = append(byKind[1], i)
		}
	}
	var rank []int
	for k := range byKind {
		rng.Shuffle(len(byKind[k]), func(a, b int) { byKind[k][a], byKind[k][b] = byKind[k][b], byKind[k][a] })
	}
	for i := 0; len(rank) < len(cells); i++ {
		for k := range byKind {
			if i < len(byKind[k]) {
				rank = append(rank, byKind[k][i])
			}
		}
	}
	cum := make([]float64, len(cells))
	total := 0.0
	for r := range rank {
		total += 1 / math.Pow(float64(r+1), 0.9)
		cum[r] = total
	}
	var cold []int
	for i, c := range cells {
		if !c.stored {
			cold = append(cold, i)
		}
	}
	if len(cold) > sz.rounds {
		return nil, fmt.Errorf("serve-mix: %d cold cells need at least as many rounds", len(cold))
	}
	firstTouch := map[int]int{} // round -> cold cell asked first there
	for i, r := range rng.Perm(sz.rounds)[:len(cold)] {
		firstTouch[r] = cold[i]
	}
	touched := map[int]bool{}
	zipf := func() int {
		for {
			i := rank[sort.SearchFloat64s(cum, rng.Float64()*total)]
			if cells[i].stored || touched[i] {
				return i
			}
		}
	}
	model := &lruModel{cap: sz.hotSet, tierOf: map[int]*tier{}}
	rounds := make([][2]serveReq, sz.rounds)
	for r := range rounds {
		var keys [2]int
		e := -1
		for try := 0; try < 1000 && e < 0; try++ {
			if k, ok := firstTouch[r]; ok {
				keys[0] = k
			} else if try%10 == 0 {
				keys[0] = zipf()
			}
			keys[1] = zipf()
			e = model.evictions(keys)
		}
		if e < 0 {
			return nil, fmt.Errorf("serve-mix: no interleaving-safe request pair for round %d", r)
		}
		model.apply(keys, e)
		for slot, k := range keys {
			c := cells[k]
			q := c.req
			q.Mode = c.modes[rng.IntN(len(c.modes))]
			switch {
			case !c.curve():
			case !touched[k] && !c.stored:
				if c.twinFirst {
					q.Estimator = "twin-first"
				}
			case rng.IntN(100) < sz.twinFirstPct:
				q.Estimator = "twin-first"
			}
			touched[k] = true
			body, err := json.Marshal(q)
			if err != nil {
				return nil, err
			}
			rounds[r][slot] = serveReq{cell: k, body: body, est: q.Estimator}
		}
	}
	return rounds, nil
}

// unthrottled admits everything: the set-up daemon that writes the
// journal is not under test.
var unthrottled = map[string]serve.ClassConfig{
	"interactive": {Rate: 1e9, Burst: 1 << 20, Queue: 1 << 20},
	"refine":      {Rate: 1e9, Burst: 1 << 20, Queue: 1 << 20},
}

func query(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
	return rec
}

// buildJournal computes every stored cell through a daemon over a fresh
// store in dir, then closes it. It returns each stored cell's bytes.
func buildJournal(ctx context.Context, dir string, cells []*serveCell) (map[string][]byte, error) {
	st, err := store.Open(dir, nil)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Store: st, Workers: workers(), HotSet: 1 << 16, Classes: unthrottled, BaseContext: ctx})
	if err != nil {
		st.Close()
		return nil, err
	}
	ref, err := journalCells(srv.Handler(), cells)
	if err := errors.Join(err, stopDaemon(ctx, srv, st)); err != nil {
		return nil, err
	}
	return ref, nil
}

func journalCells(h http.Handler, cells []*serveCell) (map[string][]byte, error) {
	ref := map[string][]byte{}
	for _, c := range cells {
		q := c.req
		q.Mode = c.modes[0]
		body, err := json.Marshal(q)
		if err != nil {
			return nil, err
		}
		rec := query(h, body)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("serve-mix: journaling %s: status %d: %s", body, rec.Code, rec.Body.Bytes())
		}
		var resp serve.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return nil, err
		}
		ref[c.digest] = resp.Cell
	}
	return ref, nil
}

// stopDaemon drains the daemon, waiting for background refinements,
// then closes its store.
func stopDaemon(ctx context.Context, srv *serve.Server, st *store.Store) error {
	dctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	return errors.Join(srv.Drain(dctx), st.Close())
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// answer is one response as a client saw it.
type answer struct {
	code    int
	body    []byte
	resp    serve.QueryResponse
	latency time.Duration
}

// source classifies an answer: hot, store, computed (exact, cold),
// twin_first (a provisional twin answer), rejected (429) or error.
func (a *answer) source() string {
	switch {
	case a.code == http.StatusTooManyRequests:
		return "rejected"
	case a.code != http.StatusOK:
		return "error"
	case !a.resp.Refined:
		return "twin_first"
	}
	return a.resp.Source
}

var serveSources = []string{"hot", "store", "computed", "twin_first", "rejected", "error"}

type servePassOut struct {
	sp           *spans // traced passes only
	setup        time.Duration
	wall         time.Duration   // the rounds with their refinement waits, set-up excluded
	rounds       []time.Duration // each round's share of wall
	answers      [][2]answer
	digest       string
	sources      map[string]int64
	computeCells int
}

// servePass copies the set-up journal, opens it and a daemon over it,
// and plays every round.
func servePass(ctx context.Context, in *serveInputs, journal, dir string, sz serveSizes, traced bool) (*servePassOut, error) {
	if err := copyDir(journal, dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := &servePassOut{sources: map[string]int64{}}
	if traced {
		p.sp = newSpans()
	}
	t0 := time.Now()
	st, err := store.Open(dir, nil)
	p.sp.add("store.open", time.Since(t0))
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Store: st, Workers: workers(), HotSet: sz.hotSet, BaseContext: ctx})
	if err != nil {
		st.Close()
		return nil, err
	}
	p.setup = time.Since(t0)
	err = p.play(ctx, srv, in)
	if err := errors.Join(err, stopDaemon(ctx, srv, st)); err != nil {
		return nil, err
	}
	var parts [][]byte
	for r := range p.answers {
		for slot := range p.answers[r] {
			a := &p.answers[r][slot]
			parts = append(parts, a.body)
			src := a.source()
			p.sources[src]++
			if src == "computed" || src == "twin_first" {
				p.computeCells += in.cells[in.rounds[r][slot].cell].cellModes()
			}
		}
	}
	p.digest = digestOf(parts)
	return p, nil
}

// play sends every round's two queries, one per client, and waits for
// both answers and any refinement before the next round.
func (p *servePassOut) play(ctx context.Context, srv *serve.Server, in *serveInputs) error {
	h := srv.Handler()
	ask := func(req serveReq) answer {
		t := time.Now()
		rec := query(h, req.body)
		a := answer{code: rec.Code, body: rec.Body.Bytes(), latency: time.Since(t)}
		if a.code == http.StatusOK {
			if err := json.Unmarshal(a.body, &a.resp); err != nil {
				a.code = -1
			}
		}
		return a
	}
	p.answers = make([][2]answer, len(in.rounds))
	p.rounds = make([]time.Duration, len(in.rounds))
	start := time.Now()
	for r, round := range in.rounds {
		roundStart := time.Now()
		var wg sync.WaitGroup
		for slot, req := range round {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.answers[r][slot] = ask(req)
			}()
		}
		wg.Wait()
		for _, a := range p.answers[r] {
			p.sp.add("serve."+a.source(), a.latency)
		}
		if round[0].est == "twin-first" || round[1].est == "twin-first" {
			t := time.Now()
			if err := srv.WaitRefinements(ctx); err != nil {
				return err
			}
			p.sp.add("serve.refine_drain", time.Since(t))
		}
		p.rounds[r] = time.Since(roundStart)
	}
	p.wall = time.Since(start)
	return nil
}

// refs are the bytes every answer is checked against.
type refs struct {
	exact    map[string][]byte // by exact digest: journaled or recomputed
	twin     map[string][]byte // twin-first cells' twin answers
	counts   cellCounts        // simulator counts of the recomputed curve cells
	problems []string
}

// references recomputes every cold cell directly through the harness
// and estimator calls the daemon's cold path makes: exact for all of
// them, twin as well for those asked twin-first. It counts the
// simulator's work on the exact curve cells, and checks each twin-first
// cell's twin answer against memsim.Evaluate over twin.Predict. Traced
// (sp non-nil), it also re-simulates each cold curve cell one layer
// down with spans, as a traced sweep job does, which must give the
// GFlop/s ComputeCell gave: the cold cells are all the simulation a
// pass does, so these spans are the daemon's simulator work per pass.
func references(ctx context.Context, cells []*serveCell, stored map[string][]byte, sp *spans) (*refs, error) {
	rf := &refs{exact: map[string][]byte{}, twin: map[string][]byte{}}
	for d, b := range stored {
		rf.exact[d] = b
	}
	w := sweep.NewWorker(0)
	for _, cell := range cells {
		if cell.stored {
			continue
		}
		var v any
		if cell.curve() {
			pt, err := cell.spec.ComputeCell(ctx, nil, w, core.Exact, cell.req.Kernel, cell.req.Footprint)
			if err != nil {
				return nil, err
			}
			for _, m := range cell.spec.Machines {
				sim, err := m.PooledSim(w)
				if err != nil {
					return nil, err
				}
				rf.counts.addSim(sim)
			}
			if sp != nil {
				if err := rf.traceCell(ctx, w, cell, pt, sp); err != nil {
					return nil, err
				}
			}
			v = pt
		} else {
			r, err := core.Exact.EstimateDense(ctx, nil, *cell.dense, core.DenseCellKey(*cell.dense))
			if err != nil {
				return nil, err
			}
			v = r
		}
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		rf.exact[cell.digest] = b
		if cell.twinFirst {
			if err := rf.addTwin(ctx, cell, sp); err != nil {
				return nil, err
			}
		}
	}
	return rf, nil
}

func (rf *refs) traceCell(ctx context.Context, w *sweep.Worker, cell *serveCell, pt harness.CurvePoint, sp *spans) error {
	wl, err := cell.spec.Workload(cell.req.Kernel, cell.req.Footprint)
	if err != nil {
		return err
	}
	for _, m := range cell.spec.Machines {
		key := fmt.Sprintf("%s|%d|%s", cell.req.Kernel, cell.req.Footprint, m.Label())
		r, _, err := evalCell(ctx, w, m, wl, key, sp)
		if err != nil {
			return err
		}
		if r.GFlops != pt.GFlops[m.Mode] {
			rf.problems = append(rf.problems, fmt.Sprintf("%s: traced simulation gives %g GFlop/s, ComputeCell %g", key, r.GFlops, pt.GFlops[m.Mode]))
		}
	}
	return nil
}

func (rf *refs) addTwin(ctx context.Context, cell *serveCell, sp *spans) error {
	pt, err := cell.spec.ComputeCell(ctx, nil, nil, twin.Estimator{}, cell.req.Kernel, cell.req.Footprint)
	if err != nil {
		return err
	}
	if rf.twin[cell.digest], err = json.Marshal(pt); err != nil {
		return err
	}
	wl, err := cell.spec.Workload(cell.req.Kernel, cell.req.Footprint)
	if err != nil {
		return err
	}
	for _, m := range cell.spec.Machines {
		cfg := m.Config()
		t0 := time.Now()
		tr, err := twin.Predict(&cfg, wl)
		sp.add("twin.predict", time.Since(t0))
		if err != nil {
			return err
		}
		props, err := m.WorkloadProps(wl)
		if err != nil {
			return err
		}
		r, err := memsim.Evaluate(&cfg, tr, props)
		if err != nil {
			return err
		}
		if r.GFlops != pt.GFlops[m.Mode] {
			rf.problems = append(rf.problems, fmt.Sprintf("%s %s fp=%d on %s: twin.Predict gives %g GFlop/s, the twin estimator %g",
				cell.req.Platform, cell.req.Kernel, cell.req.Footprint, m.Mode, r.GFlops, pt.GFlops[m.Mode]))
		}
	}
	return nil
}

// verify checks one pass's answers against the references. Non-200
// answers are counted per pass, not here.
func (rf *refs) verify(in *serveInputs, p *servePassOut) []string {
	var problems []string
	for r := range p.answers {
		for slot := range p.answers[r] {
			a := &p.answers[r][slot]
			if a.code != http.StatusOK {
				continue
			}
			c := in.cells[in.rounds[r][slot].cell]
			what := fmt.Sprintf("round %d client %d (%s)", r, slot, in.rounds[r][slot].body)
			if a.resp.Digest != c.digest {
				problems = append(problems, fmt.Sprintf("%s: digest %s, want %s", what, a.resp.Digest, c.digest))
			}
			want := rf.exact[c.digest]
			if !a.resp.Refined {
				want = rf.twin[c.digest]
			}
			if !bytes.Equal(a.resp.Cell, want) {
				problems = append(problems, fmt.Sprintf("%s: %s answer differs from the reference cell", what, a.source()))
			}
		}
	}
	return problems
}

func runServeMix(ctx context.Context, rc runConfig, sz sizes) (*outcome, error) {
	ss := sz.serve
	cells, bulk, err := serveUniverse(rc.seed, ss)
	if err != nil {
		return nil, err
	}
	rounds, err := serveSchedule(rc.seed, cells, ss)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{cells: cells, rounds: rounds}
	journal := filepath.Join(rc.scratch, "journal")
	var toStore []*serveCell
	for _, c := range cells {
		if c.stored {
			toStore = append(toStore, c)
		}
	}
	stored, err := buildJournal(ctx, journal, append(toStore, bulk...))
	if err != nil {
		return nil, err
	}
	runtime.GC() // the set-up daemon's simulators are garbage now

	// Passes run while the next one, expected to take as long as the
	// last, still ends within the budget. Every pass plays the same
	// rounds with the same answer sources, so each query's latency and
	// each round's wall time are taken as their best over the run's
	// passes. The rounds run one after another, so a pass's wall time is
	// the sum of its rounds', and the throughputs divide by the sum of
	// the best rounds. A run holds about ninety passes of under a
	// second, and with that many samples the best is steadier than the
	// median, unlike on exact-sparse: over 55 s windows of one 300 s
	// run, the cold-cell p50 and query p99 varied by 7 and 5%
	// (coefficient of variation) taken as bests and by 8 and 10% taken
	// as medians; the fastest pass's wall varied by 9%, the sum of the
	// best rounds by 7%. Only the first pass keeps its answers, for the
	// checks, so peak RSS does not grow with the number of passes.
	var un, tr []*servePassOut
	best := make([][2]time.Duration, len(rounds))
	bestRound := make([]time.Duration, len(rounds))
	var last time.Duration
	start := time.Now()
	for i := 0; len(un) < sz.minPasses || time.Since(start)+last < rc.budget; i++ {
		passStart := time.Now()
		runtime.GC() // peak RSS is a property of one pass
		p, err := servePass(ctx, in, journal, filepath.Join(rc.scratch, fmt.Sprint("pass-", i)), ss, false)
		if err != nil {
			return nil, err
		}
		un = append(un, p)
		for r := range best {
			if d := p.rounds[r]; i == 0 || d < bestRound[r] {
				bestRound[r] = d
			}
			for slot := range best[r] {
				if l := p.answers[r][slot].latency; i == 0 || l < best[r][slot] {
					best[r][slot] = l
				}
			}
		}
		if i > 0 {
			p.answers = nil
		}
		if rc.traced {
			runtime.GC()
			p, err := servePass(ctx, in, journal, filepath.Join(rc.scratch, fmt.Sprint("traced-", i)), ss, true)
			if err != nil {
				return nil, err
			}
			p.answers = nil
			tr = append(tr, p)
		}
		last = time.Since(passStart)
	}

	var sp *spans
	if rc.traced {
		sp = newSpans()
	}
	runtime.GC()
	rf, err := references(ctx, cells, stored, sp)
	if err != nil {
		return nil, err
	}
	first := un[0]
	out := &outcome{digest: first.digest, counts: rf.counts.flat()}
	for _, s := range serveSources {
		out.counts["serve."+s] = first.sources[s]
	}
	for _, p := range append(rf.problems, rf.verify(in, first)...) {
		out.fail("%s", p)
	}
	for i, p := range append(un, tr...) {
		out.attempted += 2 * len(rounds)
		for _, s := range []string{"rejected", "error"} {
			for n := p.sources[s]; n > 0; n-- {
				out.fail("pass %d (traced=%v): %s answer", i, p.sp != nil, s)
			}
		}
		if p.digest != first.digest {
			out.fail("pass %d (traced=%v) digest %s differs from the first pass's %s", i, p.sp != nil, p.digest, first.digest)
		}
		for _, s := range serveSources {
			if p.sources[s] != first.sources[s] {
				out.fail("pass %d (traced=%v): %d %s answers, the first pass had %d", i, p.sp != nil, p.sources[s], s, first.sources[s])
			}
		}
	}

	var wall time.Duration // the sum of the best rounds
	for _, d := range bestRound {
		wall += d
	}
	var setups []float64 // set-up time is the median over passes
	for _, p := range un {
		setups = append(setups, float64(p.setup))
	}
	var all, computed []float64
	for r := range rounds {
		for slot := range best[r] {
			all = append(all, ms(best[r][slot]))
			if first.answers[r][slot].source() == "computed" {
				computed = append(computed, ms(best[r][slot]))
			}
		}
	}
	out.e2e = map[string]metric{
		"setup_s":       {time.Duration(median(setups)).Seconds(), "s"},
		"cells_per_s":   {float64(first.computeCells) / wall.Seconds(), "cells/s"},
		"cell_p50_ms":   {quantile(computed, 0.5), "ms"},
		"cell_p90_ms":   {quantile(computed, 0.9), "ms"},
		"query_p50_ms":  {quantile(all, 0.5), "ms"},
		"query_p99_ms":  {quantile(all, 0.99), "ms"},
		"queries_per_s": {float64(2*len(rounds)) / wall.Seconds(), "queries/s"},
	}
	if rc.traced {
		out.layer = serveLayers(un, tr, sp, rf.counts)
	}
	return out, nil
}

// serveLayers derives the per-layer metrics of a traced serve-mix run
// from the spans of its traced passes — around Handler.ServeHTTP, split
// by the answer's source, around store.Open and the refinement waits —
// and from the twin.Predict and simulator spans of the reference check,
// which covers one pass's cold cells.
func serveLayers(un, tr []*servePassOut, ref *spans, c cellCounts) map[string]metric {
	sp := newSpans()
	sp.merge(ref)
	var trWall, unWall time.Duration
	for i, p := range tr {
		sp.merge(p.sp)
		trWall += p.wall
		unWall += un[i].wall
	}
	passes := float64(len(tr))
	mean := func(name string) float64 { return ratio(float64(sp.dur[name]), float64(sp.n[name])) }
	var answers int64
	for _, s := range serveSources {
		answers += sp.n["serve."+s]
	}
	l := layerDefaults()
	l["bench.trace_overhead"] = metric{trWall.Seconds() / unWall.Seconds(), "ratio"}
	l["serve.hot_us"] = metric{mean("serve.hot") / 1e3, "us"}
	l["serve.store_us"] = metric{mean("serve.store") / 1e3, "us"}
	l["serve.twin_first_us"] = metric{mean("serve.twin_first") / 1e3, "us"}
	l["serve.computed_ms"] = metric{mean("serve.computed") / 1e6, "ms"}
	l["serve.hot_ratio"] = metric{ratio(float64(sp.n["serve.hot"]), float64(answers)), "ratio"}
	l["serve.store_ratio"] = metric{ratio(float64(sp.n["serve.store"]), float64(answers)), "ratio"}
	l["serve.rejected"] = metric{float64(sp.n["serve.rejected"]) / passes, "count"}
	l["serve.refine_drain_s"] = metric{sp.dur["serve.refine_drain"].Seconds() / passes, "s"}
	l["store.open_ms"] = metric{mean("store.open") / 1e6, "ms"}
	l["twin.predict_us"] = metric{mean("twin.predict") / 1e3, "us"}
	simLayers(l, ref, 1)
	c.layers(l)
	return l
}
