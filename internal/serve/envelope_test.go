package serve

import (
	"math"
	"net/http"
	"testing"

	"repro/internal/harness"
)

// TestServeRejectsQueriesOutsideEnvelope pins the input envelope:
// queries past envelopeMargin times the paper's sweep ranges are
// rejected at resolve, before any work is queued, and answer 400.
// Without the bound the GEMM probe overflowed its footprint accounting
// into a 200 answer and the Stream probe pinned a worker for minutes.
func TestServeRejectsQueriesOutsideEnvelope(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for name, q := range map[string]QueryRequest{
		"GEMM order overflows footprint": {Platform: "broadwell", Mode: "ddr", Kind: "GEMM", N: math.MaxInt64, NB: 1},
		"Cholesky past KNL orders":       {Platform: "knl", Mode: "flat", Kind: "Cholesky", N: 2*32000 + 1, NB: 128},
		"1 TiB Stream":                   {Platform: "knl", Mode: "cache", Kernel: "Stream", Footprint: 1 << 40},
		"Stencil past Broadwell span":    {Platform: "broadwell", Mode: "edram", Kernel: "Stencil", Footprint: 2<<30 + 1},
	} {
		if _, err := srv.cat.resolve(q, srv.eng); err == nil {
			t.Errorf("%s: resolved, want an envelope error", name)
			continue // answering it would run the unbounded work
		}
		if w := postQuery(t, h, "/v1/query", q); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, w.Code, w.Body)
		}
	}
}

// TestServeEnvelopeAdmitsSweepGrid checks that every cell the figures
// sweep (and serve-mix replays) on the served platforms still resolves,
// up to the envelope's edge.
func TestServeEnvelopeAdmitsSweepGrid(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	resolves := func(q QueryRequest) {
		t.Helper()
		if _, err := srv.cat.resolve(q, srv.eng); err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
	}
	for _, p := range []string{"broadwell", "knl"} {
		spec, err := harness.NewCurveSpec(p)
		if err != nil {
			t.Fatal(err)
		}
		_, maxFP := harness.CurveFootprintRange(spec.Platform)
		minN, maxN := harness.DenseOrderRange(spec.Platform)
		fps := append(spec.Footprints(harness.Options{}), spec.Footprints(harness.Options{Full: true})...)
		for _, m := range spec.Machines {
			mode := m.Mode.String()
			for _, kernel := range []string{"Stream", "Stencil", "FFT"} {
				for _, fp := range append(fps, envelopeMargin*maxFP) {
					resolves(QueryRequest{Platform: p, Mode: mode, Kernel: kernel, Footprint: fp})
				}
			}
			for _, kind := range []string{"GEMM", "Cholesky"} {
				for n := minN; n <= maxN; n += 512 { // both platforms' order steps
					for nb := 128; nb <= 4096 && nb <= n; nb += 128 {
						resolves(QueryRequest{Platform: p, Mode: mode, Kind: kind, N: n, NB: nb})
					}
				}
				resolves(QueryRequest{Platform: p, Mode: mode, Kind: kind, N: envelopeMargin * maxN, NB: 4096})
			}
		}
	}
}
