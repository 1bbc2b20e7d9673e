package newton

import (
	"newton/internal/bf16"
	"newton/internal/dram"
	"newton/internal/gpu"
	"newton/internal/host"
)

// IdealBaseline is the paper's Ideal Non-PIM system: a host with
// infinite compute bandwidth, limited only by the external DRAM
// interface, run through the same cycle-level simulator and refresh
// schedule as Newton. Any real non-PIM design (CPU, GPU, TPU, PNM) is
// slower, so speedups against it lower-bound Newton's advantage.
type IdealBaseline struct {
	cfg  Config
	dcfg dram.Config
	h    *host.IdealNonPIM
}

// NewIdealBaseline builds the baseline for a configuration. The
// optimization toggles are irrelevant to it (it has no AiM commands);
// only geometry and timing matter.
func NewIdealBaseline(cfg Config) (*IdealBaseline, error) {
	dcfg, err := cfg.dramConfig()
	if err != nil {
		return nil, err
	}
	h, err := host.NewIdealNonPIM(dcfg, cfg.hostOptions())
	if err != nil {
		return nil, err
	}
	return &IdealBaseline{cfg: cfg, dcfg: dcfg, h: h}, nil
}

// SetFunctional controls whether the baseline host actually computes the
// product from the streamed data (the default, validating the data path)
// or only models transfer time. Timing is identical either way; large
// sweeps turn it off for speed.
func (b *IdealBaseline) SetFunctional(on bool) { b.h.Compute = on }

// Load places a matrix in the baseline's DRAM.
func (b *IdealBaseline) Load(m *Matrix) (*PlacedMatrix, error) {
	p, err := b.h.Place(m.m)
	if err != nil {
		return nil, err
	}
	return &PlacedMatrix{mat: m, p: p, owner: b}, nil
}

// MatVec streams the matrix once and returns the product (when
// functional validation is on) with run statistics. With k-way batching
// the ideal host still streams the matrix once - its infinite compute
// exploits all the reuse - so callers model batch-k time as the batch-1
// time (§V-D, Fig. 11).
func (b *IdealBaseline) MatVec(pm *PlacedMatrix, v []float32) ([]float32, RunStats, error) {
	if err := pm.on(b); err != nil {
		return nil, RunStats{}, err
	}
	res, err := b.h.RunMVM(pm.p, bf16.FromFloat32Slice(v))
	if err != nil {
		return nil, RunStats{}, err
	}
	return res.Output, statsFromResult(res), nil
}

// Now returns the baseline's clock in cycles.
func (b *IdealBaseline) Now() int64 { return b.h.Now() }

// GPUModel is the calibrated Titan V-class analytic baseline (see
// internal/gpu for the substitution rationale).
type GPUModel struct {
	m gpu.Model
}

// TitanV returns the paper's GPU baseline model.
func TitanV() GPUModel { return GPUModel{m: gpu.TitanV()} }

// KernelCycles returns the modeled GPU time, in cycles (nanoseconds),
// for a k-way batched product with an (rows x cols) matrix. The constant
// kernel-launch overhead is excluded, as the paper's methodology
// prescribes.
func (g GPUModel) KernelCycles(rows, cols, batch int) float64 {
	return g.m.KernelTime(rows, cols, batch)
}

// LayerCycles is KernelCycles at batch 1.
func (g GPUModel) LayerCycles(rows, cols int) float64 {
	return g.m.LayerTime(rows, cols)
}
