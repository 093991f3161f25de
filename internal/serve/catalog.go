package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// The catalog resolves a query onto the exact cell the batch figures
// journal: same digest layout (harness.CellDigest), same compute path
// (harness.CurveSpec.ComputeCell / Estimator.EstimateDense), same
// stored bytes — so a query warmed by an opmbench run is a store hit,
// and a cell computed by the daemon warms later opmbench runs.

// QueryRequest is the body of POST /v1/query and one element of
// POST /v1/sweep. The cell family is inferred: a kernel + footprint is
// a curve cell (Stream/Stencil/FFT), a kind + n + nb is a dense cell
// (GEMM/Cholesky).
type QueryRequest struct {
	Platform string `json:"platform"` // "broadwell" | "knl"
	Mode     string `json:"mode"`     // memsim mode label: ddr, edram, cache, flat, hybrid, edram-ms

	// Curve cells.
	Kernel    string `json:"kernel,omitempty"`          // Stream | Stencil | FFT
	Footprint int64  `json:"footprint_bytes,omitempty"` // paper-scale bytes

	// Dense cells.
	Kind string `json:"kind,omitempty"` // GEMM | Cholesky
	N    int    `json:"n,omitempty"`
	NB   int    `json:"nb,omitempty"`

	// Estimator selects the answering policy: exact (default), twin,
	// auto, or twin-first (answer from the twin within its calibrated
	// bound, refine to exact in the background).
	Estimator string `json:"estimator,omitempty"`
	// Class is the admission class ("interactive" default here,
	// "batch" on /v1/sweep).
	Class string `json:"class,omitempty"`
}

// QueryResponse is one answered cell.
type QueryResponse struct {
	Digest string `json:"digest"`
	Trace  string `json:"trace"`
	// Source is where the bytes came from: "hot" (memory), "store"
	// (journal), or "computed".
	Source string `json:"source"`
	// Estimator is the mode that produced the served value.
	Estimator string `json:"estimator"`
	// Refined is false only for a provisional twin-first answer whose
	// background exact computation has not landed yet.
	Refined bool `json:"refined"`
	// ErrBound is the calibrated family error bound a provisional
	// answer carries (fraction; 0 when Refined).
	ErrBound float64 `json:"err_bound,omitempty"`

	GFlops    float64 `json:"gflops"`
	AppGBs    float64 `json:"app_gbs,omitempty"` // curve cells: application-level GB/s
	Footprint int64   `json:"footprint_bytes,omitempty"`

	// Cell is the full cell payload, byte-for-byte as journaled.
	Cell json.RawMessage `json:"cell"`
}

// cell is one resolved query target: enough identity to derive the
// digest under any estimator, plus the compute and render hooks.
type cell struct {
	family  string // store sweep family before estimator namespacing
	cfgHash string
	key     string
	// kernelFamily is the twin calibration family (twin.Family input).
	kernelName string
	mode       memsim.Mode

	compute func(ctx context.Context, w *sweep.Worker, est core.Estimator) (any, error)
	render  func(data []byte, resp *QueryResponse) error
}

// digestFor returns the store digest of this cell under est —
// estimator separation included, byte-compatible with the batch
// sweeps' cacheFor.
func (c *cell) digestFor(est core.Estimator) string {
	return harness.CellDigest(est, c.family, c.cfgHash, c.key)
}

// expFor returns the provenance family label Put records (the
// estimator-namespaced sweep family, as batch sweeps record it).
func (c *cell) expFor(est core.Estimator) string {
	return harness.CellFamilyID(est, c.family)
}

// catalog caches per-platform curve specs (machine construction is
// cheap but the spec pins identity; one instance per platform keeps
// config hashing consistent and contention-free).
type catalog struct {
	mu    sync.Mutex
	specs map[string]*harness.CurveSpec
}

func newCatalog() *catalog {
	return &catalog{specs: map[string]*harness.CurveSpec{}}
}

func (c *catalog) spec(platform string) (*harness.CurveSpec, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.specs[platform]; ok {
		return s, nil
	}
	s, err := harness.NewCurveSpec(platform)
	if err != nil {
		return nil, err
	}
	c.specs[platform] = s
	return s, nil
}

// envelopeMargin bounds queries to this multiple of the ranges the
// paper's figures sweep (harness.CurveFootprintRange,
// harness.DenseOrderRange). Past it the model is unvalidated, a curve
// cell's simulation grows without bound, and dense footprint
// accounting overflows.
const envelopeMargin = 2

// resolve maps a request onto its cell, validating platform, mode and
// parameters against the model's envelope. eng is the engine
// estimators run under.
func (c *catalog) resolve(req QueryRequest, eng *sweep.Engine) (*cell, error) {
	spec, err := c.spec(req.Platform)
	if err != nil {
		return nil, err
	}
	mode, err := memsim.ParseMode(req.Mode)
	if err != nil {
		return nil, err
	}
	mach, ok := spec.Machine(mode)
	if !ok {
		return nil, fmt.Errorf("serve: platform %q does not run mode %q", req.Platform, req.Mode)
	}

	switch {
	case req.Kernel != "" && req.Kind == "":
		if req.Footprint <= 0 {
			return nil, fmt.Errorf("serve: curve query needs a positive footprint_bytes, got %d", req.Footprint)
		}
		if _, maxFP := harness.CurveFootprintRange(spec.Platform); req.Footprint > envelopeMargin*maxFP {
			return nil, fmt.Errorf("serve: footprint_bytes %d outside the %s envelope (at most %d)",
				req.Footprint, req.Platform, envelopeMargin*maxFP)
		}
		if _, err := spec.Workload(req.Kernel, req.Footprint); err != nil {
			return nil, err
		}
		kernel, fp := req.Kernel, req.Footprint
		return &cell{
			family:     harness.CurveSweepID(kernel),
			cfgHash:    spec.ConfigHash(),
			key:        harness.CurveCellKey(fp),
			kernelName: kernel,
			mode:       mode,
			compute: func(ctx context.Context, w *sweep.Worker, est core.Estimator) (any, error) {
				return spec.ComputeCell(ctx, eng, w, est, kernel, fp)
			},
			render: func(data []byte, resp *QueryResponse) error {
				var pt harness.CurvePoint
				if err := json.Unmarshal(data, &pt); err != nil {
					return fmt.Errorf("serve: decoding curve cell: %w", err)
				}
				resp.GFlops = pt.GFlops[mode]
				resp.AppGBs = pt.GBs[mode]
				resp.Footprint = pt.Footprint
				return nil
			},
		}, nil

	case req.Kind != "" && req.Kernel == "":
		var kind trace.DenseKind
		switch req.Kind {
		case "GEMM":
			kind = trace.DenseGEMM
		case "Cholesky":
			kind = trace.DenseCholesky
		default:
			return nil, fmt.Errorf("serve: unknown dense kind %q (want GEMM or Cholesky)", req.Kind)
		}
		if req.N <= 0 || req.NB <= 0 || req.NB > req.N {
			return nil, fmt.Errorf("serve: dense query needs 0 < nb <= n, got n=%d nb=%d", req.N, req.NB)
		}
		if _, maxN := harness.DenseOrderRange(spec.Platform); req.N > envelopeMargin*maxN {
			return nil, fmt.Errorf("serve: dense order n=%d outside the %s envelope (at most %d)",
				req.N, req.Platform, envelopeMargin*maxN)
		}
		j := core.DenseJob{Machine: mach, Kind: kind, N: req.N, NB: req.NB}
		return &cell{
			family:     harness.DenseSweepID,
			cfgHash:    "",
			key:        harness.DenseKey(j),
			kernelName: kind.String(),
			mode:       mode,
			compute: func(ctx context.Context, w *sweep.Worker, est core.Estimator) (any, error) {
				_ = w // dense cells are analytic; no pooled simulator involved
				return est.EstimateDense(ctx, eng, j, core.DenseCellKey(j))
			},
			render: func(data []byte, resp *QueryResponse) error {
				var r memsim.Result
				if err := json.Unmarshal(data, &r); err != nil {
					return fmt.Errorf("serve: decoding dense cell: %w", err)
				}
				resp.GFlops = r.GFlops
				resp.Footprint = r.FootprintBytes
				return nil
			},
		}, nil
	}
	return nil, fmt.Errorf("serve: query must name either a curve kernel (kernel + footprint_bytes) or a dense cell (kind + n + nb)")
}
