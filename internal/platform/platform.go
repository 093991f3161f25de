// Package platform defines the two evaluation machines of the paper
// (Table 3): the Broadwell i7-5775c with 128 MB eDRAM, and the Knights
// Landing 7210 with 16 GB MCDRAM. Each platform builds memsim.Config
// values for the memory modes of Table 1.
//
// # Capacity scaling
//
// Trace-simulating multi-gigabyte footprints access-by-access is not
// feasible, and the phenomena under study (cache peaks, valleys,
// effective regions) depend on capacity *ratios*. Every platform
// carries a Scale factor: cache and OPM capacities are divided by it
// inside the simulator, harness sweeps build problems at the scaled
// size, and results multiply footprints back up so the axes match the
// paper's figures. Bandwidths, latencies and compute peaks are the
// real machine values, so GFlop/s are directly comparable.
//
// # Calibration
//
// Sustained-bandwidth and latency constants below are calibrated so
// the shape targets in DESIGN.md §6 hold: e.g. the Broadwell Stream
// plateau ratio eDRAM/DDR ≈ 2.4 (Table 4 max speedup 2.421x) and the
// KNL MCDRAM/DDR plateau ratio ≈ 5.4 (Table 5 max speedup 5.443x).
package platform

import (
	"fmt"

	"repro/internal/memsim"
)

// Platform describes one evaluation machine.
type Platform struct {
	Name     string
	CPU      string
	Arch     string
	Cores    int
	FreqGHz  float64
	SPGFlops float64 // theoretical single-precision peak
	DPGFlops float64 // theoretical double-precision peak

	DRAMKind  string
	DRAMBytes int64   // off-package DRAM capacity (unscaled)
	DRAMGBs   float64 // spec-sheet DRAM bandwidth

	OPMKind  string
	OPMBytes int64   // on-package memory capacity (unscaled)
	OPMGBs   float64 // spec-sheet OPM bandwidth

	// Scale divides capacities for simulation (see package comment).
	Scale int64

	// Modes lists the memory modes this platform supports (Table 1).
	Modes []memsim.Mode

	// base is the mode-independent part of the memsim config.
	base memsim.Config
}

// Threads returns the optimal thread count from Table 2 for a kernel
// class: dense kernels and SpTRANS use one thread per core on
// Broadwell (4) and per-core on KNL (64); the bandwidth-hungry kernels
// use 2 or 4 SMT threads per core (8 on Broadwell, 256 on KNL).
func (p *Platform) Threads(smt bool) int {
	if !smt {
		return p.Cores
	}
	return p.base.MaxThreads
}

// ScaledBytes converts an unscaled (paper-sized) byte count to the
// simulated size.
func (p *Platform) ScaledBytes(b int64) int64 { return b / p.Scale }

// ReportedBytes converts a simulated byte count back to paper scale.
func (p *Platform) ReportedBytes(b int64) int64 { return b * p.Scale }

// Config builds the memsim configuration for one memory mode.
func (p *Platform) Config(mode memsim.Mode) (memsim.Config, error) {
	supported := false
	for _, m := range p.Modes {
		if m == mode {
			supported = true
			break
		}
	}
	if !supported {
		return memsim.Config{}, fmt.Errorf("platform %s: mode %s not supported (Table 1)", p.Name, mode)
	}
	cfg := p.base
	cfg.Mode = mode
	switch mode {
	case memsim.ModeDDR:
		cfg.EDRAM = memsim.CacheCfg{}
		cfg.MCDRAMBytes = 0
	case memsim.ModeEDRAM:
		// EDRAM geometry already present in base.
	case memsim.ModeCache, memsim.ModeFlat, memsim.ModeHybrid:
		// MCDRAMBytes already present in base.
	}
	if err := cfg.Validate(); err != nil {
		return memsim.Config{}, err
	}
	return cfg, nil
}

// Broadwell returns the Core i7-5775c description: 4 cores @ 3.7 GHz,
// 6 MB L3, 128 MB eDRAM L4 (102.4 GB/s OPIO), DDR3-2133 (34.1 GB/s).
// Simulated with Scale=16.
func Broadwell() *Platform {
	const scale = 16
	p := &Platform{
		Name:      "broadwell",
		CPU:       "i7-5775c",
		Arch:      "Broadwell",
		Cores:     4,
		FreqGHz:   3.7,
		SPGFlops:  473.6,
		DPGFlops:  236.8,
		DRAMKind:  "DDR3-2133",
		DRAMBytes: 16 << 30,
		DRAMGBs:   34.1,
		OPMKind:   "eDRAM",
		OPMBytes:  128 << 20,
		OPMGBs:    102.4,
		Scale:     scale,
		Modes:     []memsim.Mode{memsim.ModeDDR, memsim.ModeEDRAM},
	}
	p.base = memsim.Config{
		Name:  p.Name,
		L1:    memsim.CacheCfg{Size: (32 << 10) * 4 / scale, Ways: 8},  // 4x32KB L1D
		L2:    memsim.CacheCfg{Size: (256 << 10) * 4 / scale, Ways: 8}, // 4x256KB
		L3:    memsim.CacheCfg{Size: (6 << 20) / scale, Ways: 12},
		EDRAM: memsim.CacheCfg{Size: (128 << 20) / scale, Ways: 16},
		Links: [memsim.NumSources]memsim.LinkParams{
			// Sustained L2 stream bandwidth: puts the Stream L2 peak at
			// ~206 GB/s app-level (paper's best: 201.3).
			memsim.SrcL2: {BWGBs: 155, LatNS: 3.5},
			// Sustained L3 stream bandwidth; the paper's best Stream
			// figure (201.3 GB/s, Table 4) is its L2/L3 cache peak.
			memsim.SrcL3: {BWGBs: 150, LatNS: 12},
			// eDRAM: 102.4 GB/s OPIO peak, ~72 GB/s sustained; victim
			// installs consume the same link, so steady-state service
			// is about half that — calibrated to the paper's 2.42x
			// Stream ceiling. Latency sits between L3 and DDR (2.3(b)).
			memsim.SrcEDRAM: {BWGBs: 72, LatNS: 42},
			// DDR3-2133 dual channel: 34.1 spec, ~20 sustained triad.
			memsim.SrcDDR: {BWGBs: 20, LatNS: 85},
		},
		PeakDPGFlops:  236.8,
		PeakSPGFlops:  473.6,
		Cores:         4,
		MaxThreads:    8,
		MSHRs:         64, // 10 L2 MSHRs/core + LFBs, rounded
		SplitPenalty:  1,  // no flat mode on Broadwell
		MLPRampFactor: 6,
		Scale:         scale,
	}
	return p
}

// KNL returns the Xeon Phi 7210 description: 64 cores @ 1.5 GHz (1.3
// AVX), 32 MB aggregate L2, 16 GB MCDRAM (490 GB/s), DDR4-2133
// (102 GB/s), quadrant cluster mode. Simulated with Scale=64.
//
// Note: Table 3 of the paper transposes the SP/DP peaks for KNL; the
// true values are SP 6144, DP 3072 GFlop/s and we use those.
func KNL() *Platform {
	const scale = 64
	p := &Platform{
		Name:      "knl",
		CPU:       "Xeon Phi 7210",
		Arch:      "Knights Landing",
		Cores:     64,
		FreqGHz:   1.5,
		SPGFlops:  6144,
		DPGFlops:  3072,
		DRAMKind:  "DDR4-2133",
		DRAMBytes: 96 << 30,
		DRAMGBs:   102,
		OPMKind:   "MCDRAM",
		OPMBytes:  16 << 30,
		OPMGBs:    490,
		Scale:     scale,
		Modes: []memsim.Mode{
			memsim.ModeDDR, memsim.ModeCache, memsim.ModeFlat, memsim.ModeHybrid,
		},
	}
	p.base = memsim.Config{
		Name: p.Name,
		// 64x64KB L1D aggregate, scaled.
		L1: memsim.CacheCfg{Size: (64 << 10) * 64 / scale, Ways: 8},
		// 32 MB aggregate tile L2 (Table 3), modelled as one shared
		// cache at simulation scale.
		L2:          memsim.CacheCfg{Size: (32 << 20) / scale, Ways: 16},
		L3:          memsim.CacheCfg{},
		MCDRAMBytes: (16 << 30) / scale,
		Links: [memsim.NumSources]memsim.LinkParams{
			// Aggregate sustained L2 stream bandwidth; yields the
			// ~793 GB/s app-level L2 cache peak of Table 5's Stream row.
			memsim.SrcL2: {BWGBs: 600, LatNS: 10},
			// MCDRAM: 490 GB/s spec, ~450 sustained; idle latency is
			// *higher* than DDR (Section 2.2), the root of the
			// SpTRSV anomaly (Fig 19).
			memsim.SrcMCDRAM: {BWGBs: 450, LatNS: 155},
			// DDR4-2133 six channels: 102 spec, ~83 sustained.
			memsim.SrcDDR: {BWGBs: 83, LatNS: 130},
		},
		PeakDPGFlops: 3072,
		PeakSPGFlops: 6144,
		Cores:        64,
		MaxThreads:   256,
		// Very high outstanding-request capacity across 32 tiles; KNL
		// needs hundreds of concurrent streams to saturate MCDRAM.
		MSHRs:         2048,
		SplitPenalty:  6, // flat-mode MCDRAM+DDR straddle pathology
		MLPRampFactor: 6,
		Scale:         scale,
	}
	return p
}

// Skylake returns a Skylake-with-eDRAM description (i7-6770HQ-class):
// the same 128 MB / 102.4 GB/s eDRAM part as Broadwell but arranged as
// a memory-side buffer behind the DRAM controller (Section 2.1 — "more
// like a memory-side buffer rather than a cache"). It exists to study
// the CPU-side-victim vs memory-side architectural question; the paper
// itself could not toggle eDRAM on Skylake in BIOS.
func Skylake() *Platform {
	const scale = 16
	p := &Platform{
		Name:      "skylake",
		CPU:       "i7-6770HQ",
		Arch:      "Skylake",
		Cores:     4,
		FreqGHz:   3.5,
		SPGFlops:  448,
		DPGFlops:  224,
		DRAMKind:  "DDR4-2133",
		DRAMBytes: 16 << 30,
		DRAMGBs:   34.1,
		OPMKind:   "eDRAM",
		OPMBytes:  128 << 20,
		OPMGBs:    102.4,
		Scale:     scale,
		Modes:     []memsim.Mode{memsim.ModeDDR, memsim.ModeEDRAMMemSide},
	}
	p.base = memsim.Config{
		Name:  p.Name,
		L1:    memsim.CacheCfg{Size: (32 << 10) * 4 / scale, Ways: 8},
		L2:    memsim.CacheCfg{Size: (256 << 10) * 4 / scale, Ways: 8},
		L3:    memsim.CacheCfg{Size: (6 << 20) / scale, Ways: 12},
		EDRAM: memsim.CacheCfg{Size: (128 << 20) / scale, Ways: 16},
		Links: [memsim.NumSources]memsim.LinkParams{
			memsim.SrcL2: {BWGBs: 160, LatNS: 3.4},
			memsim.SrcL3: {BWGBs: 155, LatNS: 11},
			// Memory-side position: slightly longer latency than the
			// Broadwell CPU-side arrangement, same OPIO bandwidth.
			memsim.SrcEDRAM: {BWGBs: 72, LatNS: 48},
			memsim.SrcDDR:   {BWGBs: 21, LatNS: 82},
		},
		PeakDPGFlops:  224,
		PeakSPGFlops:  448,
		Cores:         4,
		MaxThreads:    8,
		MSHRs:         64,
		SplitPenalty:  1,
		MLPRampFactor: 6,
		Scale:         scale,
	}
	return p
}

// All returns the paper's two evaluation platforms. AllWithExtensions
// adds the Skylake extension platform.
func All() []*Platform { return []*Platform{Broadwell(), KNL()} }

// AllWithExtensions returns every modelled platform including the
// Skylake memory-side-eDRAM extension.
func AllWithExtensions() []*Platform { return []*Platform{Broadwell(), KNL(), Skylake()} }
