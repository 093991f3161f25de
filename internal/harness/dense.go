package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/plot"
	"repro/internal/trace"
)

// DenseOrderRange returns the paper's dense matrix-order span
// (Appendix A.2.1/A.2.2): 256..16128 on Broadwell, 256..32000 on KNL.
func DenseOrderRange(p *platform.Platform) (minN, maxN int) {
	if p.Name == "broadwell" {
		return 256, 16128
	}
	return 256, 32000
}

// denseGrid returns the paper's (order, block) sweep for a platform:
// the orders of DenseOrderRange in steps of 512 on Broadwell and 1024
// on KNL; blocks 128..4096 step 128 on both. The analytic dense model
// is cheap, so quick mode only coarsens the block axis.
func denseGrid(p *platform.Platform, full bool) (orders, blocks []int) {
	minN, maxN := DenseOrderRange(p)
	orderStep := 1024
	if p.Name == "broadwell" {
		orderStep = 512
	}
	for n := minN; n <= maxN; n += orderStep {
		orders = append(orders, n)
	}
	step := 128
	if !full {
		step = 256
	}
	for nb := 128; nb <= 4096; nb += step {
		blocks = append(blocks, nb)
	}
	return orders, blocks
}

func denseKind(kernel string) (trace.DenseKind, error) {
	switch kernel {
	case "GEMM":
		return trace.DenseGEMM, nil
	case "Cholesky":
		return trace.DenseCholesky, nil
	}
	return 0, fmt.Errorf("harness: unknown dense kernel %q", kernel)
}

// denseHeatmapRunner builds Figures 7/8 (Broadwell) and 15/16 (KNL):
// one (block × order) GFlop/s heat map per memory mode. The grid cells
// are submitted to the sweep engine machine-by-machine in row-major
// (block, order) order; results come back in submission order, so the
// assembled heat maps are byte-identical to the sequential nest they
// replace.
func denseHeatmapRunner(platName, kernel string) func(context.Context, Options) (*Report, error) {
	return func(ctx context.Context, opt Options) (*Report, error) {
		kind, err := denseKind(kernel)
		if err != nil {
			return nil, err
		}
		base, opms, plat, err := machineSet(platName)
		if err != nil {
			return nil, err
		}
		machines := append([]*core.Machine{base}, opms...)
		orders, blocks := denseGrid(plat, opt.Full)

		var jobs []core.DenseJob
		for _, m := range machines {
			for _, nb := range blocks {
				for _, n := range orders {
					jobs = append(jobs, core.DenseJob{Machine: m, Kind: kind, N: n, NB: nb})
				}
			}
		}
		opt.logger().Debug("dense sweep starting", "platform", platName, "kernel", kernel,
			"cells", len(jobs))
		sp := opt.Obs.StartSpan("dense/" + platName + "/" + kernel + "/sweep") //opmlint:allow counternames — platform and kernel come from the closed registry roster; the dense/<plat>/<kernel> namespace is enumerable
		results, err := core.RunDenseBatchWith(ctx, opt.engine(), jobs, denseCache(opt), opt.estimator())
		sp.End()
		if err != nil {
			// Dense cells fail only for systematic reasons (bad grid or
			// tuning), so any failure aborts the heat map.
			return nil, err
		}

		rep := &Report{CSV: map[string][]string{}}
		render := opt.Obs.StartSpan("dense/" + platName + "/" + kernel + "/render") //opmlint:allow counternames — platform and kernel come from the closed registry roster; the dense/<plat>/<kernel> namespace is enumerable
		defer render.End()
		var b strings.Builder
		idx := 0
		for _, m := range machines {
			grid := make([][]float64, len(blocks))
			csv := []string{csvLine("order", "block", "gflops", "bound")}
			peak := 0.0
			peakN, peakNB := 0, 0
			for bi, nb := range blocks {
				grid[bi] = make([]float64, len(orders))
				for oi, n := range orders {
					r := results[idx]
					idx++
					grid[bi][oi] = r.GFlops
					if r.GFlops > peak {
						peak, peakN, peakNB = r.GFlops, n, nb
					}
					csv = append(csv, csvLine(fmt.Sprint(n), fmt.Sprint(nb), f(r.GFlops), string(r.Bound)))
				}
			}
			label := fmt.Sprintf("%s %s (%s)", kernel, platName, m.Mode)
			b.WriteString(plot.Heatmap(
				fmt.Sprintf("%s GFlop/s heat map — peak %.1f at n=%d nb=%d", label, peak, peakN, peakNB),
				grid, "matrix order", "block size"))
			b.WriteString("\n")
			rep.CSV[fmt.Sprintf("%s_%s_%s.csv", strings.ToLower(kernel), platName, m.Mode)] = csv
			rep.Findings = append(rep.Findings,
				fmt.Sprintf("%s best: %.1f GFlop/s (n=%d, nb=%d)", label, peak, peakN, peakNB))
		}
		rep.Text = b.String()
		return rep, nil
	}
}
