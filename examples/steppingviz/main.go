// steppingviz renders the paper's Stepping model (Figures 6, 28, 29,
// 30) for an architect exploring OPM design points: how big and how
// fast must an on-package memory be for a given kernel profile?
//
// Run with: go run ./examples/steppingviz [flags]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/plot"
	"repro/internal/stepping"
)

// curve evaluates one stepping model, exiting with the error on bad
// flag combinations.
func curve(name string, levels []stepping.Level, k stepping.Kernel, minFP, maxFP int64, points int) stepping.Curve {
	c, err := stepping.Model(name, levels, k, minFP, maxFP, points)
	if err != nil {
		fmt.Fprintln(os.Stderr, "steppingviz:", err)
		os.Exit(1)
	}
	return c
}

func main() {
	var (
		ai     = flag.Float64("ai", 0.0625, "kernel arithmetic intensity (flops/byte)")
		peak   = flag.Float64("peak", 200, "compute ceiling, GFlop/s")
		opmCap = flag.Int64("opmcap", 128<<20, "OPM capacity, bytes")
		opmBW  = flag.Float64("opmbw", 72, "OPM sustained bandwidth, GB/s")
	)
	flag.Parse()

	kernel := stepping.Kernel{Name: "kernel", AI: *ai, PeakGFlops: *peak, MLP: 64, RampFactor: 6}
	base := []stepping.Level{
		{Name: "L3", Cap: 6 << 20, BWGBs: 150, LatNS: 12},
		{Name: "OPM", Cap: *opmCap, BWGBs: *opmBW, LatNS: 42, OPM: true},
		{Name: "DDR", Cap: 0, BWGBs: 20, LatNS: 85},
	}
	noOPM := []stepping.Level{base[0], base[2]}

	minFP, maxFP := int64(1<<20), int64(8)<<30
	with := curve("w/ OPM", base, kernel, minFP, maxFP, 120)
	without := curve("w/o OPM", noOPM, kernel, minFP, maxFP, 120)

	fmt.Println(plot.Lines("Stepping model: throughput vs footprint",
		[]plot.Series{toSeries(without), toSeries(with)}, 72, 16, true))

	lo, hi, ok := stepping.EffectiveRegion(with, without, 1.0001)
	if ok {
		fmt.Printf("performance-effective region: %d MB .. %d MB\n", lo>>20, hi>>20)
	} else {
		fmt.Println("the OPM never helps this kernel profile")
	}
	lo, hi, ok = stepping.EffectiveRegion(with, without, 1.086)
	if ok {
		fmt.Printf("energy-effective region (Eq. 1, +8.6%% power): %d MB .. %d MB\n", lo>>20, hi>>20)
	} else {
		fmt.Println("no energy-effective region at +8.6% power")
	}

	fmt.Println("\nHardware what-ifs (Fig 30):")
	cap2 := curve("2x capacity",
		stepping.ScaleCapacity(base, "OPM", 2), kernel, minFP, maxFP, 120)
	bw2 := curve("2x bandwidth",
		stepping.ScaleBandwidth(base, "OPM", 2), kernel, minFP, maxFP, 120)
	fmt.Println(plot.Lines("capacity vs bandwidth scaling",
		[]plot.Series{toSeries(with), toSeries(cap2), toSeries(bw2)}, 72, 14, true))
}

func toSeries(c stepping.Curve) plot.Series {
	s := plot.Series{Name: c.Name}
	for _, p := range c.Points {
		s.X = append(s.X, float64(p.Footprint))
		s.Y = append(s.Y, p.GFlops)
	}
	return s
}
