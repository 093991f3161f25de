package memsim

import (
	"math"
	"strings"
	"testing"
)

// validResult is a minimal result that satisfies every gate invariant.
func validResult() Result {
	var tr Traffic
	tr.Accesses = 100
	tr.Bytes[SrcDDR] = 6400
	tr.Lines[SrcDDR] = 100
	return Result{
		GFlops: 2.5, Seconds: 0.4, MemGBs: 1.0,
		Flops: 1e9, ComputeSec: 0.2, LatencySec: 0.2,
		FootprintBytes: 1 << 20, Traffic: tr,
	}
}

// TestResultValidateAccepts checks the gate passes a healthy result
// and the zero value (an empty cell has nothing to violate).
func TestResultValidateAccepts(t *testing.T) {
	r := validResult()
	if err := r.Validate(); err != nil {
		t.Fatalf("healthy result rejected: %v", err)
	}
	var zero Result
	if err := zero.Validate(); err != nil {
		t.Fatalf("zero result rejected: %v", err)
	}
}

// TestResultValidateRejects pins each invariant the gate enforces:
// non-finite or negative fields, positive flops without time or
// throughput, and traffic conservation violations.
func TestResultValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Result)
		want   string
	}{
		{"NaN gflops", func(r *Result) { r.GFlops = math.NaN() }, "GFlops"},
		{"Inf seconds", func(r *Result) { r.Seconds = math.Inf(1) }, "Seconds"},
		{"negative bandwidth", func(r *Result) { r.MemGBs = -1 }, "MemGBs"},
		{"negative footprint", func(r *Result) { r.FootprintBytes = -4096 }, "footprint"},
		{"flops without time", func(r *Result) { r.Seconds, r.GFlops = 0, 0 }, "non-positive time"},
		{"lines without bytes", func(r *Result) {
			r.Traffic.Lines[SrcMCDRAM] = 5
			r.Traffic.Bytes[SrcMCDRAM] = 0
		}, "0 bytes"},
		{"accesses unserved", func(r *Result) {
			for s := Source(0); s < NumSources; s++ {
				r.Traffic.Bytes[s] = 0
				r.Traffic.Lines[s] = 0
			}
		}, "no source served"},
	}
	for _, c := range cases {
		r := validResult()
		c.mutate(&r)
		err := r.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestSimCheckInvariantsOnRealRun checks the per-level invariants hold
// after a genuine simulation — the always-on gate must never reject a
// healthy cell.
func TestSimCheckInvariantsOnRealRun(t *testing.T) {
	s := testSim(t, testConfig(ModeCache))
	buf := s.Alloc("x", 1<<20) // larger than every cache level
	buf.LoadLines(0, 1<<20)
	buf.StoreLines(0, 512<<10)
	buf.LoadLines(0, 256<<10)
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("healthy simulator rejected: %v", err)
	}
}
