package memsim

import (
	"fmt"
	"math"
)

// mcTagOverheadBytes models the MCDRAM cache-mode tag-check overhead:
// tags live in MCDRAM itself (Section 2.2), so every lookup consumes a
// slice of MCDRAM bandwidth beyond the data transfer. This is the
// mechanism behind the paper's observation that hybrid mode can beat
// pure cache mode when the hot working set fits the cached half.
const mcTagOverheadBytes = 16

// KernelProps carries the kernel-side inputs of the timing model.
type KernelProps struct {
	// Name labels the kernel in results.
	Name string
	// Flops is the operation count as defined by Table 2 of the paper
	// (GFlop/s reported by the harness divides this by time).
	Flops float64
	// Threads is the number of worker threads (Table 2's Thds column).
	Threads int
	// MLP is the per-thread memory-level parallelism the kernel can
	// expose at full ramp (outstanding misses incl. prefetch): high
	// for Stream, moderate for SpMV/FFT/Stencil, near zero for the
	// dependency-bound SpTRSV.
	MLP float64
	// Eff is the fraction of theoretical compute peak a tuned
	// implementation reaches when compute bound.
	Eff float64
	// SinglePrecision selects the SP peak (all paper kernels are DP).
	SinglePrecision bool
}

// Validate checks the kernel properties.
func (k *KernelProps) Validate() error {
	if k.Flops <= 0 {
		return fmt.Errorf("memsim: kernel %s: flops must be positive", k.Name)
	}
	if k.Threads <= 0 {
		return fmt.Errorf("memsim: kernel %s: threads must be positive", k.Name)
	}
	if k.MLP <= 0 || k.Eff <= 0 || k.Eff > 1 {
		return fmt.Errorf("memsim: kernel %s: bad MLP/Eff (%g, %g)", k.Name, k.MLP, k.Eff)
	}
	return nil
}

// Bound identifies the binding constraint of a run.
type Bound string

// Bound values reported in Result.
const (
	BoundCompute   Bound = "compute"
	BoundL2BW      Bound = "bw:L2"
	BoundL3BW      Bound = "bw:L3"
	BoundEDRAMBW   Bound = "bw:eDRAM"
	BoundMCDRAMBW  Bound = "bw:MCDRAM"
	BoundDDRBW     Bound = "bw:DDR"
	BoundLatency   Bound = "latency"
	BoundSplit     Bound = "split"
	BoundUndefined Bound = "undefined"
)

var bwBoundBySource = map[Source]Bound{
	SrcL2:     BoundL2BW,
	SrcL3:     BoundL3BW,
	SrcEDRAM:  BoundEDRAMBW,
	SrcMCDRAM: BoundMCDRAMBW,
	SrcDDR:    BoundDDRBW,
}

// Result is the outcome of evaluating one kernel run on one machine
// configuration.
type Result struct {
	Kernel  string
	Machine string
	Mode    Mode
	GFlops  float64 // throughput by the paper's operation counts
	Seconds float64 // modelled execution time
	Bound   Bound   // the binding constraint
	MemGBs  float64 // achieved memory-side bandwidth (GB/s)
	Flops   float64
	Traffic Traffic
	// FootprintBytes is at *reported* (paper) scale: simulated
	// footprint multiplied by the platform scale factor.
	FootprintBytes int64
	// Component times (seconds) for analysis.
	ComputeSec float64
	BWSec      [NumSources]float64
	LatencySec float64
	// EffectiveMLP is the ramped memory-level parallelism used.
	EffectiveMLP float64
}

// Evaluate applies the executable Stepping model to the traffic of a
// simulated run: the run time is the max of the compute bound, each
// level's bandwidth bound, and the latency/MLP bound. See DESIGN.md §5.
func Evaluate(cfg *Config, t Traffic, k KernelProps) (Result, error) {
	if err := k.Validate(); err != nil {
		return Result{}, err
	}
	res := Result{
		Kernel:         k.Name,
		Machine:        cfg.Name,
		Mode:           cfg.Mode,
		Flops:          k.Flops,
		Traffic:        t,
		FootprintBytes: t.FootprintBytes * cfg.Scale,
	}

	// Compute bound.
	peak := cfg.PeakDPGFlops
	if k.SinglePrecision {
		peak = cfg.PeakSPGFlops
	}
	// Compute throughput scales with used cores; SMT threads beyond
	// the core count do not add flops.
	coreFrac := math.Min(1, float64(k.Threads)/float64(cfg.Cores))
	res.ComputeSec = k.Flops / (peak * 1e9 * k.Eff * coreFrac)

	// Bandwidth bounds.
	worst := res.ComputeSec
	bound := BoundCompute
	for src := SrcL2; src <= SrcDDR; src++ {
		bw := cfg.Links[src].BWGBs
		if bw <= 0 {
			continue
		}
		demand := float64(t.Bytes[src] + t.WBBytes[src])
		if src == SrcMCDRAM {
			// Tag checks consume MCDRAM bandwidth on every access that
			// consulted the in-MCDRAM tags (cache/hybrid modes).
			demand += float64(t.MCTagLines) * mcTagOverheadBytes
		}
		sec := demand / (bw * 1e9)
		res.BWSec[src] = sec
		if sec > worst {
			worst, bound = sec, bwBoundBySource[src]
		}
	}

	// Latency bound: demand fills from memory-side sources divided by
	// the ramped memory-level parallelism.
	mlp := effectiveMLP(cfg, t, k)
	res.EffectiveMLP = mlp
	var latNS float64
	for _, src := range []Source{SrcEDRAM, SrcMCDRAM, SrcDDR} {
		latNS += float64(t.Lines[src]) * cfg.Links[src].LatNS
	}
	res.LatencySec = latNS * 1e-9 / mlp
	if res.LatencySec > worst {
		worst, bound = res.LatencySec, BoundLatency
	}

	// The flat-mode MCDRAM+DDR straddle pathology (Section 4.2.1 II):
	// NoC bus conflicts and L2 set conflicts between the two memories
	// stall the whole chip, so the penalty multiplies the run time
	// regardless of which bound was binding.
	if t.SplitFlat && cfg.SplitPenalty > 1 {
		worst *= cfg.SplitPenalty
		bound = BoundSplit
	}

	if worst <= 0 {
		return Result{}, fmt.Errorf("memsim: %s on %s: degenerate run (no time)", k.Name, cfg.Name)
	}
	res.Seconds = worst
	res.Bound = bound
	res.GFlops = k.Flops / worst / 1e9
	res.MemGBs = float64(t.TotalMemBytes()) / worst / 1e9
	return res, nil
}

// effectiveMLP models how memory-level parallelism ramps up as the
// working set grows past a cache capacity: right past capacity C the
// miss stream is sparse and prefetchers are ineffective (the Stepping
// model's cache valley); once the footprint reaches MLPRampFactor*C
// the stream is long enough to reach full hardware concurrency.
func effectiveMLP(cfg *Config, t Traffic, k KernelProps) float64 {
	full := float64(k.Threads) * k.MLP
	if cfg.MSHRs > 0 {
		full = math.Min(full, float64(cfg.MSHRs))
	}
	spilled := spilledCapacity(cfg, t.FootprintBytes)
	ramp := 1.0
	if spilled > 0 && cfg.MLPRampFactor > 1 {
		ramp = math.Min(1, float64(t.FootprintBytes)/(cfg.MLPRampFactor*float64(spilled)))
	}
	mlp := full * ramp
	if mlp < 1 {
		mlp = 1
	}
	return mlp
}

// spilledCapacity returns the capacity of the largest *on-chip* cache
// smaller than the footprint — the level whose spill throttles the
// prefetch/MLP ramp — or 0 when the footprint fits on chip. OPM levels
// are deliberately excluded: prefetcher concurrency is a property of
// the on-chip miss stream, so enabling an OPM never lowers MLP (the
// paper never observes eDRAM making things slower).
func spilledCapacity(cfg *Config, footprint int64) int64 {
	caps := []int64{cfg.L2.Size}
	if cfg.L3.Size > 0 {
		caps = append(caps, cfg.L3.Size)
	}
	var spilled int64
	for _, c := range caps {
		if c < footprint && c > spilled {
			spilled = c
		}
	}
	return spilled
}
