package main

import (
	"time"

	"repro/internal/memsim"
)

// spans accumulates the benchmark's own spans around public calls into
// the program: total duration and call count per name, plus named
// counts. They stay in memory and are summarised when the run ends. A
// nil *spans records nothing, which is the untraced path.
type spans struct {
	dur map[string]time.Duration
	n   map[string]int64
}

func newSpans() *spans {
	return &spans{dur: map[string]time.Duration{}, n: map[string]int64{}}
}

func (s *spans) add(name string, d time.Duration) {
	if s == nil {
		return
	}
	s.dur[name] += d
	s.n[name]++
}

func (s *spans) count(name string, n int64) {
	if s == nil {
		return
	}
	s.n[name] += n
}

func (s *spans) merge(o *spans) {
	if s == nil || o == nil {
		return
	}
	for k, v := range o.dur {
		s.dur[k] += v
	}
	for k, v := range o.n {
		s.n[k] += v
	}
}

// levels are the cache levels the per-layer metrics report. The
// simulator names Skylake's memory-side eDRAM "edram_ms" and KNL's
// MCDRAM cache "mcdram_cache"; both fold into the level they model.
var levels = []string{"l1", "l2", "l3", "edram", "mcdram"}

func levelIndex(name string) int {
	switch name {
	case "l1":
		return 0
	case "l2":
		return 1
	case "l3":
		return 2
	case "edram", "edram_ms":
		return 3
	case "mcdram_cache":
		return 4
	}
	return -1
}

// cellCounts are the simulator's exact counts summed over cells:
// demand accesses issued, and per cache level its lookups, misses and
// dirty evictions. A change that only speeds the simulator up must leave
// every one of them identical.
type cellCounts struct {
	accesses uint64
	level    [5][3]uint64 // accesses, misses, writebacks
}

func (c *cellCounts) addSim(sim *memsim.Sim) {
	c.accesses += sim.Traffic().Accesses
	for _, ls := range sim.LevelStats() {
		if i := levelIndex(ls.Level); i >= 0 {
			c.level[i][0] += ls.Stats.Accesses
			c.level[i][1] += ls.Stats.Misses
			c.level[i][2] += ls.Stats.Writebacks
		}
	}
}

func (c *cellCounts) add(o cellCounts) {
	c.accesses += o.accesses
	for i := range c.level {
		for j := range c.level[i] {
			c.level[i][j] += o.level[i][j]
		}
	}
}

// flat names every count as its per-layer metric does.
func (c cellCounts) flat() map[string]int64 {
	m := map[string]int64{"memsim.accesses": int64(c.accesses)}
	for i, lv := range levels {
		m["cache."+lv+".accesses"] = int64(c.level[i][0])
		m["cache."+lv+".misses"] = int64(c.level[i][1])
		m["cache."+lv+".writebacks"] = int64(c.level[i][2])
	}
	return m
}

// layers writes the count metrics into l.
func (c cellCounts) layers(l map[string]metric) {
	l["memsim.accesses"] = metric{float64(c.accesses), "count"}
	for i, lv := range levels {
		l["cache."+lv+".accesses"] = metric{float64(c.level[i][0]), "count"}
		l["cache."+lv+".misses"] = metric{float64(c.level[i][1]), "count"}
		l["cache."+lv+".writebacks"] = metric{float64(c.level[i][2]), "count"}
		l["cache."+lv+".miss_ratio"] = metric{ratio(float64(c.level[i][1]), float64(c.level[i][0])), "ratio"}
	}
}

// families are the simulated kernel families (twin.Family names).
var families = []string{"stream", "stencil", "fft", "spmv", "sptrans", "sptrsv"}

// platformModes are the machine sets' (platform, mode) pairs.
var platformModes = []string{"broadwell.ddr", "broadwell.edram", "knl.ddr", "knl.cache", "knl.flat", "knl.hybrid"}

// simLayers writes the simulator's per-layer metrics from the spans
// evalCell records, which cover the cells of n passes.
func simLayers(l map[string]metric, sp *spans, n float64) {
	perPass := func(name string) float64 { return sp.dur[name].Seconds() / n }
	for _, fam := range families {
		l["memsim.simulate_s."+fam] = metric{perPass("simulate." + fam), "s"}
		l["memsim.ns_per_access."+fam] = metric{ratio(float64(sp.dur["simulate."+fam]), float64(sp.n["accesses."+fam])), "ns"}
	}
	for _, pm := range platformModes {
		l["memsim.simulate_s."+pm] = metric{perPass("simulate." + pm), "s"}
	}
	l["memsim.evaluate_us"] = metric{ratio(float64(sp.dur["evaluate"]), float64(sp.n["evaluate"])) / 1e3, "us"}
	l["core.gate_us"] = metric{ratio(float64(sp.dur["gate"]), float64(sp.n["gate"])) / 1e3, "us"}
}

// layerDefaults returns every per-layer metric at zero — the value of a
// layer the workload does not exercise (no serving on exact-sparse, no
// matrix generation or sweep on serve-mix).
func layerDefaults() map[string]metric {
	l := map[string]metric{
		"bench.trace_overhead":      {0, "ratio"},
		"sparse.gen_s":              {0, "s"},
		"sparse.gen_share":          {0, "ratio"},
		"memsim.evaluate_us":        {0, "us"},
		"core.gate_us":              {0, "us"},
		"sweep.utilization":         {0, "ratio"},
		"sweep.overhead_us_per_job": {0, "us"},
		"sweep.wait_ms":             {0, "ms"},
		"serve.hot_us":              {0, "us"},
		"serve.store_us":            {0, "us"},
		"serve.twin_first_us":       {0, "us"},
		"serve.computed_ms":         {0, "ms"},
		"serve.hot_ratio":           {0, "ratio"},
		"serve.store_ratio":         {0, "ratio"},
		"serve.rejected":            {0, "count"},
		"serve.refine_drain_s":      {0, "s"},
		"store.open_ms":             {0, "ms"},
		"twin.predict_us":           {0, "us"},
	}
	for _, fam := range families {
		l["memsim.simulate_s."+fam] = metric{0, "s"}
		l["memsim.ns_per_access."+fam] = metric{0, "ns"}
	}
	for _, pm := range platformModes {
		l["memsim.simulate_s."+pm] = metric{0, "s"}
	}
	cellCounts{}.layers(l)
	return l
}
