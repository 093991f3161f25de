// Package shard is the multi-process execution strategy: a coordinator
// partitions a sweep's cell list across N re-exec'd worker processes
// by content digest, supervises them (heartbeat liveness, backoff
// restart, work stealing off the slowest or dead shard), and merges
// the per-shard append-only journals into one canonical store. The
// contract it extends is the repo's oldest: every execution strategy
// yields byte-identical results — warm==cold, parallel==sequential,
// traced==untraced, and now sharded==sequential, at the level of the
// merged journal's bytes (see DESIGN.md §14 and the process-chaos
// suite).
//
// Crash safety is inherited, not reinvented: each worker owns a
// private internal/store journal where every committed cell is a
// checkpoint, so a killed worker loses at most the cell it was
// computing, and a coordinator killed mid-sweep resumes by scanning
// the shard journals read-only (store.ReadJournal) — never reopening a
// file an orphaned worker may still be appending to.
package shard

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/twin"
)

// Spec describes one sharded curve sweep. It is the unit of agreement
// between coordinator and workers — serialized verbatim into every
// worker manifest, so both sides derive the same plan, the same
// digests, and the same store bytes.
type Spec struct {
	// Platform is the curve platform ("broadwell" or "knl").
	Platform string `json:"platform"`
	// Kernels lists the curve kernels to sweep, in plan order. Empty
	// means the full curve roster (Stream, Stencil, FFT).
	Kernels []string `json:"kernels,omitempty"`
	// Points overrides the footprint-grid size (0 keeps the 16-point
	// quick grid, or 32 with Full).
	Points int  `json:"points,omitempty"`
	Full   bool `json:"full,omitempty"`
	// Estimator selects the evaluation policy ("exact", "twin" or
	// "auto"; empty means exact) with TwinMaxErr as auto's tolerance.
	Estimator  string  `json:"estimator,omitempty"`
	TwinMaxErr float64 `json:"twin_max_err,omitempty"`
}

// Cell is one unit of sharded work: a (kernel, footprint) curve cell
// with its full store identity precomputed, so partitioning, skip
// checks, and the merge all key on the digest without re-deriving it.
type Cell struct {
	Kernel string `json:"kernel"`
	FP     int64  `json:"fp"`
	Digest string `json:"digest"`
	Exp    string `json:"exp"`
	Key    string `json:"key"`
}

// Plan is a spec resolved against the platform registry: the full cell
// list in canonical order (kernels in spec order × footprints
// ascending — the exact order a sequential run commits in, which is
// the order the merge replays) plus the compute seam the workers run.
type Plan struct {
	Spec  Spec
	Cells []Cell

	curve *harness.CurveSpec
	est   core.Estimator
}

// DefaultKernels is the curve roster a spec with no kernel list sweeps.
var DefaultKernels = []string{"Stream", "Stencil", "FFT"}

// NewPlan resolves a spec: estimator selection, machine set, footprint
// grid, and the per-cell digests. Both the coordinator and every
// re-exec'd worker call this with the same spec, so disagreement about
// any cell's identity is impossible by construction.
func NewPlan(spec Spec) (*Plan, error) {
	est, err := twin.Select(spec.Estimator, spec.TwinMaxErr)
	if err != nil {
		return nil, err
	}
	cs, err := harness.NewCurveSpec(spec.Platform)
	if err != nil {
		return nil, err
	}
	kernels := spec.Kernels
	if len(kernels) == 0 {
		kernels = DefaultKernels
	}
	fps := cs.Footprints(harness.Options{Full: spec.Full, CurvePoints: spec.Points})
	cfg := cs.ConfigHash()
	p := &Plan{Spec: spec, curve: cs, est: est}
	for _, k := range kernels {
		// Validate the kernel name up front: a bad spec must fail at
		// plan time, not inside a worker process.
		if _, err := cs.Workload(k, fps[0]); err != nil {
			return nil, err
		}
		sweepID := harness.CurveSweepID(k)
		exp := harness.CellFamilyID(est, sweepID)
		for _, fp := range fps {
			key := harness.CurveCellKey(fp)
			p.Cells = append(p.Cells, Cell{
				Kernel: k,
				FP:     fp,
				Digest: harness.CellDigest(est, sweepID, cfg, key),
				Exp:    exp,
				Key:    key,
			})
		}
	}
	return p, nil
}

// Compute evaluates one cell through the plan's estimator — the same
// per-job body the curve figures run, so a sharded worker's result
// bytes match a sequential run's exactly.
func (p *Plan) Compute(ctx context.Context, w *sweep.Worker, c Cell) (harness.CurvePoint, error) {
	return p.curve.ComputeCell(ctx, nil, w, p.est, c.Kernel, c.FP)
}

// ShardOf maps a cell digest to its home shard: the digest's leading
// 32 bits modulo the shard count. Content-based placement means the
// partition is a pure function of the plan — any coordinator
// incarnation, resumed or fresh, assigns every cell to the same shard.
func ShardOf(digest string, shards int) int {
	if shards <= 1 {
		return 0
	}
	// The digest is hex (store.Digest → sha256); its first 8 chars are
	// already uniformly distributed.
	u, err := strconv.ParseUint(digest[:8], 16, 64)
	if err != nil {
		// Not reachable for store digests; fall back to a stable
		// non-hex bucket rather than panicking on foreign input.
		u = uint64(len(digest))
	}
	return int(u % uint64(shards))
}

// RunSequential computes the plan single-process into a store at dir,
// committing in plan order — the byte-identity baseline every sharded
// run is compared against. Cells already in the store are skipped, so
// it is also the trivial resume path.
func RunSequential(ctx context.Context, p *Plan, dir string, reg *obs.Registry) error {
	st, err := store.Open(dir, reg)
	if err != nil {
		return err
	}
	defer st.Close() // guards the error returns; the success path closes explicitly
	w := sweep.NewWorker(0)
	for _, c := range p.Cells {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, ok := st.GetRaw(c.Digest); ok {
			continue
		}
		pt, err := sweep.Run(ctx, nil, w, c.Key, c, p.Compute)
		if err != nil {
			return fmt.Errorf("shard: sequential %s fp=%d: %w", c.Kernel, c.FP, err)
		}
		//opmlint:allow ctxflow — a journal append must complete once begun; the loop checks ctx.Err() between cells, which is the cancellation boundary
		if err := st.Put(c.Digest, c.Exp, c.Key, pt); err != nil {
			return err
		}
	}
	return st.Close()
}
