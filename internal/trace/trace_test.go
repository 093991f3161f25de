package trace

import (
	"testing"

	"repro/internal/memsim"
	"repro/internal/sparse"
)

// smallCfg is an unscaled DDR-only config for workload unit tests.
func smallCfg(mode memsim.Mode) memsim.Config {
	cfg := memsim.Config{
		Name: "t",
		Mode: mode,
		L1:   memsim.CacheCfg{Size: 4 << 10, Ways: 4},
		L2:   memsim.CacheCfg{Size: 32 << 10, Ways: 8},
		L3:   memsim.CacheCfg{Size: 256 << 10, Ways: 8},
		Links: [memsim.NumSources]memsim.LinkParams{
			memsim.SrcL2:    {BWGBs: 200, LatNS: 4},
			memsim.SrcL3:    {BWGBs: 100, LatNS: 12},
			memsim.SrcEDRAM: {BWGBs: 50, LatNS: 40},
			memsim.SrcDDR:   {BWGBs: 20, LatNS: 90},
		},
		PeakDPGFlops:  200,
		PeakSPGFlops:  400,
		Cores:         4,
		MaxThreads:    8,
		MSHRs:         64,
		SplitPenalty:  6,
		MLPRampFactor: 6,
		Scale:         1,
	}
	if mode == memsim.ModeEDRAM {
		cfg.EDRAM = memsim.CacheCfg{Size: 2 << 20, Ways: 16}
	}
	return cfg
}

func runWorkload(t *testing.T, w Workload, mode memsim.Mode) memsim.Traffic {
	t.Helper()
	sim := testSim(t, smallCfg(mode))
	w.Simulate(sim)
	return sim.Traffic()
}

func TestStreamWorkload(t *testing.T) {
	w := NewStream(3 << 20)
	if w.Name() != "Stream" {
		t.Fatal("name")
	}
	if w.Flops() != 2*float64(w.N) {
		t.Fatal("flops formula")
	}
	tr := runWorkload(t, w, memsim.ModeDDR)
	if tr.FootprintBytes != w.FootprintBytes() {
		t.Fatalf("footprint %d vs %d", tr.FootprintBytes, w.FootprintBytes())
	}
	// A 3MB triad on a 256KB LLC is DDR bound: measured pass moves
	// ~footprint bytes of demand from DDR.
	if tr.Bytes[memsim.SrcDDR] < uint64(w.FootprintBytes())*8/10 {
		t.Fatalf("DDR demand %d too small for footprint %d", tr.Bytes[memsim.SrcDDR], w.FootprintBytes())
	}
	// Write-allocate: the x stream must produce writebacks.
	if tr.WBBytes[memsim.SrcDDR] == 0 {
		t.Fatal("no writebacks from the store stream")
	}
	// Tiny footprint clamps to a sane minimum.
	if NewStream(1).N < 8 {
		t.Fatal("minimum size not enforced")
	}
}

func TestStreamFitsInCache(t *testing.T) {
	w := NewStream(12 << 10) // fits 32KB L2
	tr := runWorkload(t, w, memsim.ModeDDR)
	if tr.Bytes[memsim.SrcDDR] != 0 {
		t.Fatalf("fitting triad should be cache-resident after warm-up, DDR=%d", tr.Bytes[memsim.SrcDDR])
	}
}

func TestSpMVWorkloadStructureSensitivity(t *testing.T) {
	// Banded and random matrices with the same nnz/footprint: the
	// banded gather stays local, the random one misses — the mechanism
	// behind Figures 9/20.
	n, r := 20000, 8
	banded := &SpMV{M: sparse.Banded(n, 32, r, 1)}
	random := &SpMV{M: sparse.RandomUniform(n, r, 1)}
	trB := runWorkload(t, banded, memsim.ModeDDR)
	trR := runWorkload(t, random, memsim.ModeDDR)
	if trR.Bytes[memsim.SrcDDR] <= trB.Bytes[memsim.SrcDDR] {
		t.Fatalf("random gather should miss more: banded=%d random=%d",
			trB.Bytes[memsim.SrcDDR], trR.Bytes[memsim.SrcDDR])
	}
	if banded.Flops() <= 0 || banded.FootprintBytes() <= 0 {
		t.Fatal("bad accounting")
	}
}

func TestSpTRANSWorkload(t *testing.T) {
	m := sparse.RMAT(4096, 40000, 3)
	w := &SpTRANS{M: m}
	if w.Name() != "SpTRANS" {
		t.Fatal("name")
	}
	tr := runWorkload(t, w, memsim.ModeDDR)
	// Scatter writes must produce stores (writebacks or dirty lines).
	if tr.Accesses == 0 || tr.FootprintBytes < m.FootprintBytes() {
		t.Fatalf("bad traffic: %+v", tr)
	}
	if w.FootprintBytes() < 2*int64(m.NNZ())*12 {
		t.Fatal("SpTRANS footprint must cover input and output")
	}
}

func TestSpTRSVWorkload(t *testing.T) {
	w, err := NewSpTRSV(sparse.Poisson2D(64))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "SpTRSV" {
		t.Fatal("name")
	}
	if w.AvgParallelism() <= 1 {
		t.Fatal("poisson lower triangle has parallel levels")
	}
	tr := runWorkload(t, w, memsim.ModeDDR)
	if tr.Accesses == 0 {
		t.Fatal("no accesses")
	}
	// Chain matrix: avg parallelism 1.
	chain, err := NewSpTRSV(sparse.Tridiag(256))
	if err != nil {
		t.Fatal(err)
	}
	if chain.AvgParallelism() != 1 {
		t.Fatalf("tridiag avg parallelism = %v", chain.AvgParallelism())
	}
}

func TestFFTWorkloadShape(t *testing.T) {
	w := NewFFT(8 << 20)
	if w.NX&(w.NX-1) != 0 || w.NY&(w.NY-1) != 0 || w.NZ&(w.NZ-1) != 0 {
		t.Fatalf("non-pow2 dims %dx%dx%d", w.NX, w.NY, w.NZ)
	}
	if w.FootprintBytes() > 8<<20 || w.FootprintBytes() < 2<<20 {
		t.Fatalf("footprint %d far from target", w.FootprintBytes())
	}
	tr := runWorkload(t, &FFT{NX: 32, NY: 32, NZ: 16}, memsim.ModeDDR)
	if tr.Accesses == 0 {
		t.Fatal("no accesses")
	}
}

func TestStencilWorkload(t *testing.T) {
	w := NewStencil(6<<20, 16)
	if w.FootprintBytes() > 6<<20 {
		t.Fatalf("footprint %d exceeds target", w.FootprintBytes())
	}
	small := &Stencil{NX: 32, NY: 32, NZ: 32, Block: w.Block}
	tr := runWorkload(t, small, memsim.ModeDDR)
	if tr.Accesses == 0 {
		t.Fatal("no accesses")
	}
	if small.Flops() != 61*32*32*32 {
		t.Fatal("stencil flops formula")
	}
}

func TestGEMMTraceWorkload(t *testing.T) {
	w := &GEMM{N: 96, NB: 32}
	if w.Flops() != 2*96*96*96 {
		t.Fatal("flops")
	}
	tr := runWorkload(t, w, memsim.ModeDDR)
	if tr.Accesses == 0 || tr.FootprintBytes != 3*96*96*8 {
		t.Fatalf("bad traffic %+v", tr)
	}
}

func TestDenseModelValidation(t *testing.T) {
	cfg := smallCfg(memsim.ModeDDR)
	scaled := cfg
	scaled.Scale = 4
	m := DenseModel{Kind: DenseGEMM, N: 512, NB: 64}
	if _, err := m.Traffic(&scaled); err == nil {
		t.Fatal("scaled config accepted")
	}
	bad := DenseModel{Kind: DenseGEMM, N: 0, NB: 64}
	if _, err := bad.Traffic(&cfg); err == nil {
		t.Fatal("zero order accepted")
	}
}

func TestDenseModelKinds(t *testing.T) {
	if DenseGEMM.String() != "GEMM" || DenseCholesky.String() != "Cholesky" {
		t.Fatal("kind names")
	}
	g := DenseModel{Kind: DenseGEMM, N: 100, NB: 10}
	c := DenseModel{Kind: DenseCholesky, N: 100, NB: 10}
	if g.Flops() != 2e6 || c.Flops() != 1e6/3 {
		t.Fatalf("flops: %v, %v", g.Flops(), c.Flops())
	}
	if g.FootprintBytes() != 32*100*100 || c.FootprintBytes() != 24*100*100 {
		t.Fatal("footprints")
	}
	if g.TileEff() >= (DenseModel{Kind: DenseGEMM, N: 100, NB: 100}).TileEff() {
		t.Fatal("larger tiles should have higher tile efficiency")
	}
	if g.SizeEff(4) <= (DenseModel{Kind: DenseGEMM, N: 10, NB: 10}).SizeEff(4) {
		t.Fatal("larger problems should have higher size efficiency")
	}
}

func TestUnscaledConfig(t *testing.T) {
	cfg := smallCfg(memsim.ModeEDRAM)
	cfg.Scale = 8
	u := UnscaledConfig(cfg)
	if u.Scale != 1 || u.L2.Size != cfg.L2.Size*8 || u.EDRAM.Size != cfg.EDRAM.Size*8 {
		t.Fatalf("unscale wrong: %+v", u)
	}
}

// Cross-validation: the analytic dense model's memory traffic must
// agree with the trace-driven GEMM within a factor of 4 at small
// orders (DESIGN.md §5's validation promise).
func TestDenseModelMatchesTraceGEMM(t *testing.T) {
	cfg := smallCfg(memsim.ModeDDR)
	for _, tc := range []struct{ n, nb int }{
		{128, 16}, {128, 64}, {256, 32}, {256, 128},
	} {
		sim := testSim(t, cfg)
		(&GEMM{N: tc.n, NB: tc.nb}).Simulate(sim)
		traceDDR := float64(sim.Traffic().Bytes[memsim.SrcDDR] + sim.Traffic().WBBytes[memsim.SrcDDR])

		model := DenseModel{Kind: DenseGEMM, N: tc.n, NB: tc.nb}
		tr, err := model.Traffic(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		modelDDR := float64(tr.Bytes[memsim.SrcDDR])
		if modelDDR == 0 || traceDDR == 0 {
			t.Fatalf("n=%d nb=%d: zero traffic (model %v, trace %v)", tc.n, tc.nb, modelDDR, traceDDR)
		}
		ratio := modelDDR / traceDDR
		if ratio < 0.25 || ratio > 4 {
			t.Errorf("n=%d nb=%d: model/trace DDR ratio %.2f (model %.3g, trace %.3g)",
				tc.n, tc.nb, ratio, modelDDR, traceDDR)
		}
	}
}

// The analytic model must show the paper's qualitative eDRAM effect:
// oversized tiles on big matrices recover their traffic with eDRAM.
func TestDenseModelEDRAMRecoversOversizedTiles(t *testing.T) {
	ddr := smallCfg(memsim.ModeDDR)
	ed := smallCfg(memsim.ModeEDRAM)
	m := DenseModel{Kind: DenseGEMM, N: 4096, NB: 1024} // tiles >> 256KB L3
	trD, err := m.Traffic(&ddr)
	if err != nil {
		t.Fatal(err)
	}
	trE, err := m.Traffic(&ed)
	if err != nil {
		t.Fatal(err)
	}
	if trE.Bytes[memsim.SrcDDR] >= trD.Bytes[memsim.SrcDDR] {
		t.Fatalf("eDRAM should absorb tile refetches: %d vs %d",
			trE.Bytes[memsim.SrcDDR], trD.Bytes[memsim.SrcDDR])
	}
	if trE.Bytes[memsim.SrcEDRAM] == 0 {
		t.Fatal("eDRAM should serve traffic")
	}
}

func TestCoStreamInterference(t *testing.T) {
	// Two tenants whose combined set exceeds the cache must generate
	// more memory traffic per tenant than one tenant alone.
	solo := NewStream(200 << 10) // fits the 256KB L3 of smallCfg
	co := NewCoStream(200<<10, 200<<10)
	if co.Name() != "Stream" {
		t.Fatal("CoStream should reuse Stream tuning")
	}
	if co.Flops() != 2*solo.Flops() || co.FootprintBytes() != 2*solo.FootprintBytes() {
		t.Fatal("accounting should sum the tenants")
	}
	trSolo := runWorkload(t, solo, memsim.ModeDDR)
	trCo := runWorkload(t, co, memsim.ModeDDR)
	soloDDRPerByte := float64(trSolo.Bytes[memsim.SrcDDR]) / float64(solo.FootprintBytes())
	coDDRPerByte := float64(trCo.Bytes[memsim.SrcDDR]) / float64(co.FootprintBytes())
	if coDDRPerByte <= soloDDRPerByte*1.5 {
		t.Fatalf("co-tenants should thrash the shared cache: solo %.3f vs shared %.3f DDR bytes/byte",
			soloDDRPerByte, coDDRPerByte)
	}
}

func TestCholeskyTraceWorkload(t *testing.T) {
	w := &Cholesky{N: 96, NB: 32}
	if w.Name() != "Cholesky" || w.Flops() != 96.0*96*96/3 {
		t.Fatal("accounting wrong")
	}
	tr := runWorkload(t, w, memsim.ModeDDR)
	if tr.Accesses == 0 || tr.FootprintBytes != 96*96*8 {
		t.Fatalf("bad traffic %+v", tr)
	}
}

// Cross-validation: the analytic Cholesky model's memory traffic must
// agree with the trace generator within a factor of 4 at small orders,
// mirroring the GEMM validation.
func TestDenseModelMatchesTraceCholesky(t *testing.T) {
	cfg := smallCfg(memsim.ModeDDR)
	for _, tc := range []struct{ n, nb int }{
		{256, 32}, {256, 64}, {384, 48},
	} {
		sim := testSim(t, cfg)
		(&Cholesky{N: tc.n, NB: tc.nb}).Simulate(sim)
		traceDDR := float64(sim.Traffic().Bytes[memsim.SrcDDR] + sim.Traffic().WBBytes[memsim.SrcDDR])

		model := DenseModel{Kind: DenseCholesky, N: tc.n, NB: tc.nb}
		tr, err := model.Traffic(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		modelDDR := float64(tr.Bytes[memsim.SrcDDR])
		if traceDDR == 0 || modelDDR == 0 {
			t.Fatalf("n=%d nb=%d: zero traffic (model %v, trace %v)", tc.n, tc.nb, modelDDR, traceDDR)
		}
		ratio := modelDDR / traceDDR
		if ratio < 0.25 || ratio > 4 {
			t.Errorf("n=%d nb=%d: model/trace DDR ratio %.2f (model %.3g, trace %.3g)",
				tc.n, tc.nb, ratio, modelDDR, traceDDR)
		}
	}
}

// testSim is memsim.NewSim, failing the test on error.
func testSim(t testing.TB, cfg memsim.Config) *memsim.Sim {
	t.Helper()
	s, err := memsim.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
