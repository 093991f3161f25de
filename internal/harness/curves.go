package harness

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/plot"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// CurveFootprintRange returns the paper-scale footprint span of the
// Stream/Stencil/FFT sweeps (Figures 12–14 on Broadwell span ~1MB–1GB;
// Figures 23–25 on KNL span ~8MB–32GB).
func CurveFootprintRange(p *platform.Platform) (minFP, maxFP int64) {
	if p.Name == "broadwell" {
		return 1 << 20, 1 << 30
	}
	return 8 << 20, 32 << 30
}

// curveFootprints returns the log-spaced footprints of
// CurveFootprintRange the curve figures sweep.
func curveFootprints(p *platform.Platform, opt Options) []int64 {
	minFP, maxFP := CurveFootprintRange(p)
	points := 16
	if opt.Full {
		points = 32
	}
	if opt.CurvePoints > 1 {
		points = opt.CurvePoints
	}
	out := make([]int64, 0, points)
	lmin, lmax := math.Log(float64(minFP)), math.Log(float64(maxFP))
	for i := 0; i < points; i++ {
		out = append(out, int64(math.Exp(lmin+(lmax-lmin)*float64(i)/float64(points-1))))
	}
	return out
}

// curveWorkload builds the footprint-parameterized workload of one
// kernel at simulated scale (scale also shrinks the stencil blocking).
func curveWorkload(kernel string, simFP, scale int64) (trace.Workload, error) {
	switch kernel {
	case "Stream":
		return trace.NewStream(simFP), nil
	case "Stencil":
		return trace.NewStencil(simFP, scale), nil
	case "FFT":
		return trace.NewFFT(simFP), nil
	}
	return nil, fmt.Errorf("harness: unknown curve kernel %q", kernel)
}

// CurvePoint is one footprint × machine observation — the unit the
// curve figures sweep over and the cell the serve daemon's curve
// queries resolve to. One cached cell holds every mode's value, so a
// mode-specific query renders a field out of the same stored bytes the
// batch figures journal (field names are part of the store format; see
// DESIGN.md §8).
type CurvePoint struct {
	Footprint int64 // reported scale
	GFlops    map[memsim.Mode]float64
	GBs       map[memsim.Mode]float64 // app-level bandwidth (Stream figures)
}

// runCurves sweeps one kernel across footprints and modes on the sweep
// engine: one job per footprint point, each driving every mode through
// its worker's pooled simulators.
func runCurves(ctx context.Context, platName, kernel string, opt Options) ([]CurvePoint, []*core.Machine, error) {
	spec, err := NewCurveSpec(platName)
	if err != nil {
		return nil, nil, err
	}
	machines := spec.Machines
	fps := spec.Footprints(opt)
	opt.logger().Debug("curve sweep starting", "platform", platName, "kernel", kernel,
		"points", len(fps), "modes", len(machines))
	// One footprint point runs every mode, so the machine-set hash
	// (plus the scale the workload builder consumes) is the config
	// component and the footprint is the job key.
	cache := cacheFor[int64, CurvePoint](opt, "curve/"+kernel, spec.ConfigHash(), CurveCellKey)
	eng := opt.engine()
	sp := opt.Obs.StartSpan("curves/" + platName + "/" + kernel + "/sweep") //opmlint:allow counternames — platform and kernel come from the closed registry roster; the curves/<plat>/<kernel> namespace is enumerable
	defer sp.End()
	pts, err := sweep.MapCached(ctx, eng, fps, cache,
		func(ctx context.Context, w *sweep.Worker, fp int64) (CurvePoint, error) {
			return spec.ComputeCell(ctx, eng, w, opt.estimator(), kernel, fp)
		})
	if err != nil {
		// Curve points are few and equally weighted; a hole would warp
		// the plateau comparison, so any failure aborts the figure.
		return nil, nil, err
	}
	return pts, machines, nil
}

// appGBs converts a result to application-level GB/s using the
// kernel's Table 2 byte count (the paper reports Stream in GB/s).
func appGBs(kernel string, w trace.Workload, r memsim.Result) float64 {
	var bytes float64
	switch kernel {
	case "Stream":
		bytes = 32.0 / 2.0 * w.Flops() // 32 bytes per 2 flops
	case "Stencil":
		bytes = 8.0 / 61.0 * w.Flops()
	case "FFT":
		// 48n bytes for 5n·log2 n flops.
		n := float64(w.FootprintBytes() / 16)
		bytes = 48 * n
	default:
		bytes = float64(w.FootprintBytes())
	}
	if r.Seconds <= 0 {
		return 0
	}
	return bytes / r.Seconds / 1e9
}

// curveRunner builds Figures 12–14 and 23–25.
func curveRunner(platName, kernel string) func(context.Context, Options) (*Report, error) {
	return func(ctx context.Context, opt Options) (*Report, error) {
		pts, machines, err := runCurves(ctx, platName, kernel, opt)
		if err != nil {
			return nil, err
		}
		rep := &Report{CSV: map[string][]string{}}
		unit := "GFlop/s"
		value := func(pt CurvePoint, mode memsim.Mode) float64 { return pt.GFlops[mode] }
		if kernel == "Stream" {
			unit = "GB/s"
			value = func(pt CurvePoint, mode memsim.Mode) float64 { return pt.GBs[mode] }
		}
		var series []plot.Series
		csv := []string{csvLine("footprint_mb", "mode", "gflops", "app_gbs")}
		for _, mach := range machines {
			s := plot.Series{Name: mach.Mode.String()}
			for _, pt := range pts {
				s.X = append(s.X, float64(pt.Footprint)/(1<<20))
				s.Y = append(s.Y, value(pt, mach.Mode))
				csv = append(csv, csvLine(f(float64(pt.Footprint)/(1<<20)),
					mach.Mode.String(), f(pt.GFlops[mach.Mode]), f(pt.GBs[mach.Mode])))
			}
			series = append(series, s)
		}
		var b strings.Builder
		b.WriteString(plot.Lines(
			fmt.Sprintf("%s on %s: %s vs footprint (MB, paper scale)", kernel, platName, unit),
			series, 72, 16, true))
		rep.CSV[fmt.Sprintf("%s_%s_curve.csv", strings.ToLower(kernel), platName)] = csv

		// Findings: peak per mode plus plateau comparison at the
		// largest footprint below any capacity cliff.
		for _, mach := range machines {
			peak := 0.0
			for _, pt := range pts {
				peak = math.Max(peak, value(pt, mach.Mode))
			}
			rep.Findings = append(rep.Findings,
				fmt.Sprintf("%s %s/%s best: %.4g %s", kernel, platName, mach.Mode, peak, unit))
		}
		if len(machines) > 1 {
			last := pts[len(pts)-1]
			opm := machines[len(machines)-1].Mode
			rep.Findings = append(rep.Findings, fmt.Sprintf(
				"%s %s at largest footprint: %s %.4g vs ddr %.4g %s",
				kernel, platName, opm, value(last, opm), value(last, memsim.ModeDDR), unit))
		}
		rep.Text = b.String()
		return rep, nil
	}
}
