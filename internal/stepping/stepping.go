// Package stepping implements the paper's Stepping model (Figure 6) —
// the visual analytic model derived from the valley model that plots
// attainable throughput against problem footprint for a multi-level
// memory hierarchy — and the tuning-guideline curves built from it
// (Figures 28, 29 and the hardware what-ifs of Figure 30).
package stepping

import (
	"fmt"
	"math"
)

// Level describes one rung of the hierarchy for the analytic model.
// Levels are ordered nearest-first; the last level is memory (Cap 0 =
// unbounded).
type Level struct {
	Name  string
	Cap   int64   // capacity in bytes; 0 means backing memory
	BWGBs float64 // sustained bandwidth
	LatNS float64 // unloaded latency
	// OPM marks on-package memory levels. Prefetch/MLP ramping is a
	// property of the on-chip miss stream, so OPM levels are excluded
	// from the ramp anchor (enabling an OPM never lowers MLP).
	OPM bool
}

// Kernel carries the kernel-side parameters of the analytic curves.
type Kernel struct {
	Name       string
	AI         float64 // flops per byte of demand traffic
	PeakGFlops float64 // compute ceiling (already efficiency-scaled)
	MLP        float64 // total outstanding misses at full ramp
	RampFactor float64 // footprint multiple of a spilled cache for full MLP
}

// Point is one sample of a stepping curve.
type Point struct {
	Footprint int64
	GFlops    float64
	GBs       float64 // achieved demand bandwidth
	Serving   string  // level serving the marginal traffic
}

// Curve is a stepping-model curve over a footprint sweep.
type Curve struct {
	Name   string
	Points []Point
}

// Model evaluates the analytic stepping curve over logarithmically
// spaced footprints in [minFP, maxFP]. The hit distribution uses a
// streaming-cliff approximation: cyclic reuse under LRU loses hits
// quickly once the working set W passes capacity C, so a cache
// captures a (2C−W)/W share for C < W < 2C and nothing beyond — the
// behaviour that carves the model's cache valleys.
func Model(name string, levels []Level, k Kernel, minFP, maxFP int64, points int) (Curve, error) {
	if len(levels) < 2 {
		return Curve{}, fmt.Errorf("stepping: need at least one cache and one memory level")
	}
	if levels[len(levels)-1].Cap != 0 {
		return Curve{}, fmt.Errorf("stepping: last level must be memory (Cap 0)")
	}
	if minFP <= 0 || maxFP < minFP || points < 2 {
		return Curve{}, fmt.Errorf("stepping: bad sweep [%d, %d] x %d", minFP, maxFP, points)
	}
	c := Curve{Name: name, Points: make([]Point, 0, points)}
	lmin, lmax := math.Log(float64(minFP)), math.Log(float64(maxFP))
	for i := 0; i < points; i++ {
		fp := int64(math.Exp(lmin + (lmax-lmin)*float64(i)/float64(points-1)))
		c.Points = append(c.Points, eval(levels, k, fp))
	}
	return c, nil
}

func eval(levels []Level, k Kernel, fp int64) Point {
	w := float64(fp)
	// Share of traffic served by each level.
	share := make([]float64, len(levels))
	remaining := 1.0
	for i, l := range levels {
		if l.Cap == 0 || float64(l.Cap) >= w {
			share[i] = remaining
			remaining = 0
			continue
		}
		f := (2*float64(l.Cap) - w) / w // streaming cliff
		if f < 0 {
			f = 0
		}
		s := remaining * f
		share[i] = s
		remaining -= s
	}
	// Bandwidth time per byte and latency per byte.
	var tPerByte, latPerByte float64
	serving, worstShare := levels[0].Name, 0.0
	for i, l := range levels {
		if share[i] <= 0 {
			continue
		}
		tb := share[i] / (l.BWGBs * 1e9)
		tPerByte += tb
		if share[i] > worstShare {
			worstShare, serving = share[i], l.Name
		}
		if i > 0 { // latency of non-innermost levels
			latPerByte += share[i] * l.LatNS * 1e-9 / 64
		}
	}
	// MLP ramp relative to the largest spilled on-chip cache.
	mlp := k.MLP
	if k.RampFactor > 1 {
		var spilled float64
		for _, l := range levels[:len(levels)-1] {
			if l.OPM {
				continue
			}
			if l.Cap != 0 && float64(l.Cap) < w && float64(l.Cap) > spilled {
				spilled = float64(l.Cap)
			}
		}
		if spilled > 0 {
			ramp := math.Min(1, w/(k.RampFactor*spilled))
			mlp = math.Max(1, k.MLP*ramp)
		}
	}
	perByte := math.Max(tPerByte, latPerByte/mlp)
	gbs := 1 / perByte / 1e9
	gflops := math.Min(k.PeakGFlops, k.AI*gbs)
	return Point{Footprint: fp, GFlops: gflops, GBs: gbs, Serving: serving}
}

// ScaleCapacity returns a copy of levels with the named level's
// capacity multiplied by factor — Figure 30(A)'s what-if (a larger OPM
// stretches the cache peak to the right).
func ScaleCapacity(levels []Level, name string, factor float64) []Level {
	out := append([]Level(nil), levels...)
	for i := range out {
		if out[i].Name == name {
			out[i].Cap = int64(float64(out[i].Cap) * factor)
		}
	}
	return out
}

// ScaleBandwidth returns a copy of levels with the named level's
// bandwidth multiplied by factor — Figure 30(B)'s what-if (a faster
// OPM amplifies the cache peak).
func ScaleBandwidth(levels []Level, name string, factor float64) []Level {
	out := append([]Level(nil), levels...)
	for i := range out {
		if out[i].Name == name {
			out[i].BWGBs *= factor
		}
	}
	return out
}

// EffectiveRegion returns the footprint interval where curve `with`
// outperforms `without` by more than threshold (e.g. 1.0 for the
// performance-effective region PER, 1.086 for Broadwell's
// energy-effective region EER per Eq. 1). Curves must share their
// footprint grid.
func EffectiveRegion(with, without Curve, threshold float64) (lo, hi int64, ok bool) {
	if len(with.Points) != len(without.Points) {
		return 0, 0, false
	}
	for i := range with.Points {
		base := without.Points[i].GFlops
		if base <= 0 {
			continue
		}
		if with.Points[i].GFlops/base > threshold {
			if !ok {
				lo, ok = with.Points[i].Footprint, true
			}
			hi = with.Points[i].Footprint
		}
	}
	return lo, hi, ok
}
