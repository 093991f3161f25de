package memsim

import (
	"math"
	"testing"
	"testing/quick"
)

func props(flops float64) KernelProps {
	return KernelProps{Name: "k", Flops: flops, Threads: 8, MLP: 8, Eff: 0.9}
}

func TestKernelPropsValidate(t *testing.T) {
	good := props(1e9)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []KernelProps{
		{Name: "x", Flops: 0, Threads: 1, MLP: 1, Eff: 0.5},
		{Name: "x", Flops: 1, Threads: 0, MLP: 1, Eff: 0.5},
		{Name: "x", Flops: 1, Threads: 1, MLP: 0, Eff: 0.5},
		{Name: "x", Flops: 1, Threads: 1, MLP: 1, Eff: 0},
		{Name: "x", Flops: 1, Threads: 1, MLP: 1, Eff: 1.5},
	} {
		if bad.Validate() == nil {
			t.Errorf("bad props accepted: %+v", bad)
		}
	}
}

func TestEvaluateComputeBound(t *testing.T) {
	cfg := testConfig(ModeDDR)
	// Huge flops, negligible traffic: compute bound at Eff*peak.
	tr := Traffic{FootprintBytes: 1 << 10}
	tr.Bytes[SrcL2] = 1 << 10
	k := props(1e12)
	res, err := Evaluate(&cfg, tr, k)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound != BoundCompute {
		t.Fatalf("bound = %s, want compute", res.Bound)
	}
	want := 100.0 * 0.9 // peak * eff, all cores used
	if math.Abs(res.GFlops-want) > 1e-6 {
		t.Fatalf("GFlops = %v, want %v", res.GFlops, want)
	}
}

func TestEvaluateComputeScalesWithCores(t *testing.T) {
	cfg := testConfig(ModeDDR) // 4 cores
	tr := Traffic{FootprintBytes: 1 << 10}
	tr.Bytes[SrcL2] = 1 << 10
	k := props(1e12)
	k.Threads = 2 // half the cores
	res := testEvaluate(t, &cfg, tr, k)
	want := 100.0 * 0.9 * 0.5
	if math.Abs(res.GFlops-want) > 1e-6 {
		t.Fatalf("GFlops = %v, want %v", res.GFlops, want)
	}
	// SMT threads beyond core count add no flops.
	k.Threads = 8
	res = testEvaluate(t, &cfg, tr, k)
	if math.Abs(res.GFlops-90.0) > 1e-6 {
		t.Fatalf("GFlops = %v, want 90", res.GFlops)
	}
}

func TestEvaluateSinglePrecisionPeak(t *testing.T) {
	cfg := testConfig(ModeDDR)
	tr := Traffic{FootprintBytes: 1 << 10}
	tr.Bytes[SrcL2] = 1 << 10
	k := props(1e12)
	k.SinglePrecision = true
	res := testEvaluate(t, &cfg, tr, k)
	if math.Abs(res.GFlops-200*0.9) > 1e-6 {
		t.Fatalf("SP GFlops = %v, want 180", res.GFlops)
	}
}

func TestEvaluateDDRBandwidthBound(t *testing.T) {
	cfg := testConfig(ModeDDR)
	var tr Traffic
	tr.FootprintBytes = 100 << 20   // deep past every cache: full MLP ramp
	tr.Bytes[SrcDDR] = uint64(20e9) // 20 GB demand
	tr.Lines[SrcDDR] = tr.Bytes[SrcDDR] / 64
	k := props(1e9) // tiny compute
	res := testEvaluate(t, &cfg, tr, k)
	if res.Bound != BoundDDRBW {
		t.Fatalf("bound = %s, want bw:DDR (latency=%v bw=%v)", res.Bound, res.LatencySec, res.BWSec[SrcDDR])
	}
	if math.Abs(res.Seconds-1.0) > 0.01 {
		t.Fatalf("20GB at 20GB/s should take ~1s, got %v", res.Seconds)
	}
	if math.Abs(res.MemGBs-20) > 0.5 {
		t.Fatalf("achieved bandwidth = %v, want ~20", res.MemGBs)
	}
}

func TestEvaluateLatencyBoundInValley(t *testing.T) {
	cfg := testConfig(ModeDDR)
	// Footprint just past L3 (16KB): MLP ramp is weak, so the same
	// traffic is latency bound — the Stepping model's cache valley.
	var tr Traffic
	tr.FootprintBytes = 17 << 10
	tr.Bytes[SrcDDR] = 1 << 30
	tr.Lines[SrcDDR] = tr.Bytes[SrcDDR] / 64
	k := props(1e6)
	res := testEvaluate(t, &cfg, tr, k)
	if res.Bound != BoundLatency {
		t.Fatalf("bound = %s, want latency", res.Bound)
	}

	// Same traffic with a fully ramped footprint is bandwidth bound
	// and strictly faster per byte.
	tr2 := tr
	tr2.FootprintBytes = 10 << 20
	res2 := testEvaluate(t, &cfg, tr2, k)
	if res2.Bound != BoundDDRBW {
		t.Fatalf("bound = %s, want bw:DDR", res2.Bound)
	}
	if res2.Seconds >= res.Seconds {
		t.Fatal("full MLP ramp should be faster than the valley")
	}
}

func TestEvaluateSplitPenalty(t *testing.T) {
	cfg := testConfig(ModeFlat)
	var tr Traffic
	tr.FootprintBytes = 100 << 20
	tr.Bytes[SrcMCDRAM] = 4 << 30
	tr.Bytes[SrcDDR] = 4 << 30
	tr.Lines[SrcMCDRAM] = tr.Bytes[SrcMCDRAM] / 64
	tr.Lines[SrcDDR] = tr.Bytes[SrcDDR] / 64
	k := props(1e9)
	clean := testEvaluate(t, &cfg, tr, k)
	tr.SplitFlat = true
	split := testEvaluate(t, &cfg, tr, k)
	if split.Seconds < clean.Seconds*5 {
		t.Fatalf("split penalty too weak: clean=%v split=%v", clean.Seconds, split.Seconds)
	}
}

func TestEvaluateMCDRAMTagOverhead(t *testing.T) {
	// Identical MCDRAM traffic: cache mode pays tag bandwidth, flat
	// mode does not — flat must be at least as fast.
	var tr Traffic
	tr.FootprintBytes = 1 << 20
	tr.Bytes[SrcMCDRAM] = 8 << 30
	tr.Lines[SrcMCDRAM] = tr.Bytes[SrcMCDRAM] / 64
	k := props(1e9)
	k.Threads, k.MLP = 256, 8 // enough concurrency to be bandwidth bound
	cfgCache := testConfig(ModeCache)
	cfgCache.MSHRs = 4096
	cfgFlat := testConfig(ModeFlat)
	cfgFlat.MSHRs = 4096
	trCache := tr
	trCache.MCTagLines = tr.Lines[SrcMCDRAM] // every access consulted tags
	rc := testEvaluate(t, &cfgCache, trCache, k)
	rf := testEvaluate(t, &cfgFlat, tr, k)
	if rc.Seconds <= rf.Seconds {
		t.Fatalf("cache mode should pay tag overhead: cache=%v flat=%v", rc.Seconds, rf.Seconds)
	}
}

func TestEvaluateRejectsBadProps(t *testing.T) {
	cfg := testConfig(ModeDDR)
	if _, err := Evaluate(&cfg, Traffic{}, KernelProps{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestSpilledCapacity(t *testing.T) {
	cfg := testConfig(ModeEDRAM) // L2 4K, L3 16K, eDRAM 64K
	cases := []struct {
		fp   int64
		want int64
	}{
		{2 << 10, 0},       // fits everywhere
		{8 << 10, 4 << 10}, // spills L2
		{32 << 10, 16 << 10},
		// OPM levels never enter the ramp: same spill as without eDRAM.
		{128 << 10, 16 << 10},
	}
	for _, c := range cases {
		if got := spilledCapacity(&cfg, c.fp); got != c.want {
			t.Errorf("spilledCapacity(%d) = %d, want %d", c.fp, got, c.want)
		}
	}
	// Modes must not change the ramp: eDRAM vs DDR identical.
	cfgDDR := testConfig(ModeDDR)
	if got := spilledCapacity(&cfgDDR, 128<<10); got != 16<<10 {
		t.Errorf("ddr spilled = %d, want L3", got)
	}
	// KNL-style hybrid (no L3): only L2 throttles the ramp.
	cfgHy := testConfig(ModeHybrid)
	if got := spilledCapacity(&cfgHy, 48<<10); got != 4<<10 {
		t.Errorf("hybrid spilled = %d, want L2 4K", got)
	}
}

func TestEffectiveMLPRampAndCap(t *testing.T) {
	cfg := testConfig(ModeDDR)
	k := props(1)
	// Deep footprint: full = min(threads*MLP, MSHRs) = min(64, 64).
	tr := Traffic{FootprintBytes: 10 << 20}
	if got := effectiveMLP(&cfg, tr, k); got != 64 {
		t.Fatalf("full MLP = %v, want 64", got)
	}
	// Just past L3: ramp = fp / (6*16K) ~ 0.177 -> 11.3.
	tr.FootprintBytes = 17 << 10
	got := effectiveMLP(&cfg, tr, k)
	if got < 10 || got > 13 {
		t.Fatalf("valley MLP = %v, want ~11.3", got)
	}
	// Never below 1.
	k2 := k
	k2.Threads, k2.MLP = 1, 0.1
	if got := effectiveMLP(&cfg, tr, k2); got != 1 {
		t.Fatalf("MLP floor = %v, want 1", got)
	}
}

// Property: evaluated time is always >= each individual bound and the
// reported GFlop/s is consistent with it.
func TestPropertyEvaluateConsistency(t *testing.T) {
	cfg := testConfig(ModeEDRAM)
	f := func(l2, l3, ed, ddr uint32, fp uint32) bool {
		var tr Traffic
		tr.FootprintBytes = int64(fp)%(1<<24) + 1
		tr.Bytes[SrcL2] = uint64(l2)
		tr.Bytes[SrcL3] = uint64(l3)
		tr.Bytes[SrcEDRAM] = uint64(ed)
		tr.Bytes[SrcDDR] = uint64(ddr)
		tr.Lines[SrcL3] = uint64(l3) / 64
		tr.Lines[SrcEDRAM] = uint64(ed) / 64
		tr.Lines[SrcDDR] = uint64(ddr) / 64
		k := props(1e9)
		res, err := Evaluate(&cfg, tr, k)
		if err != nil {
			return false
		}
		if res.Seconds < res.ComputeSec-1e-15 || res.Seconds < res.LatencySec-1e-15 {
			return false
		}
		for s := SrcL2; s <= SrcDDR; s++ {
			if res.Seconds < res.BWSec[s]-1e-15 {
				return false
			}
		}
		return math.Abs(res.GFlops*res.Seconds*1e9-k.Flops) < k.Flops*1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Shape test: a streaming sweep through a Broadwell-like hierarchy
// must show the Stepping model ordering: on-chip peak > eDRAM region >
// DDR plateau, with eDRAM strictly better than DDR-only in the
// effective region.
func TestSteppingShapeOnStreamSweep(t *testing.T) {
	run := func(mode Mode, bytes int64) Result {
		cfg := testConfig(mode)
		s := testSim(t, cfg)
		buf := s.Alloc("x", bytes)
		buf.LoadLines(0, bytes) // cold
		s.ResetTraffic()
		for i := 0; i < 3; i++ {
			buf.LoadLines(0, bytes)
		}
		k := props(float64(bytes)) // 1 flop/byte: GFlops tracks GB/s
		return testEvaluate(t, &cfg, s.Traffic(), k)
	}
	inL2 := run(ModeDDR, 2<<10)
	inEDRAM := run(ModeEDRAM, 32<<10) // between L3 16K and eDRAM 64K
	sameDDR := run(ModeDDR, 32<<10)
	plateauE := run(ModeEDRAM, 4<<20) // far past eDRAM
	plateauD := run(ModeDDR, 4<<20)

	if inL2.GFlops <= inEDRAM.GFlops {
		t.Fatalf("on-chip peak (%v) should beat eDRAM region (%v)", inL2.GFlops, inEDRAM.GFlops)
	}
	if inEDRAM.GFlops <= sameDDR.GFlops {
		t.Fatalf("eDRAM effective region (%v) should beat DDR-only (%v)", inEDRAM.GFlops, sameDDR.GFlops)
	}
	if ratio := plateauE.GFlops / plateauD.GFlops; ratio < 0.9 || ratio > 1.3 {
		t.Fatalf("plateaus should converge, ratio %v", ratio)
	}
}

// testEvaluate is Evaluate, failing the test on error.
func testEvaluate(t testing.TB, cfg *Config, tr Traffic, k KernelProps) Result {
	t.Helper()
	r, err := Evaluate(cfg, tr, k)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
