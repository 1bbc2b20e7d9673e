package newton

import (
	"errors"
	"fmt"

	"newton/internal/bf16"
	"newton/internal/fault"
	"newton/internal/host"
	"newton/internal/layout"
)

// Matrix is a dense weight matrix in bfloat16, the large low-reuse
// operand that lives in AiM DRAM.
type Matrix struct {
	m *layout.Matrix
}

// NewMatrix builds a matrix from row-major float32 data, rounding each
// element to bfloat16.
func NewMatrix(rows, cols int, data []float32) (*Matrix, error) {
	m, err := layout.MatrixFromFloat32(rows, cols, data)
	if err != nil {
		return nil, err
	}
	return &Matrix{m: m}, nil
}

// RandomMatrix returns a deterministic pseudo-random matrix with entries
// in [-1, 1), useful for benchmarks and examples.
func RandomMatrix(rows, cols int, seed int64) *Matrix {
	return &Matrix{m: layout.RandomMatrix(rows, cols, seed)}
}

// Rows and Cols return the matrix shape.
func (m *Matrix) Rows() int { return m.m.Rows }

// Cols returns the number of matrix columns (the input-vector width).
func (m *Matrix) Cols() int { return m.m.Cols }

// SizeBytes returns the matrix footprint (2 bytes per element).
func (m *Matrix) SizeBytes() int64 { return m.m.SizeBytes() }

// At returns element (i, j) widened to float32.
func (m *Matrix) At(i, j int) float32 { return m.m.At(i, j).Float32() }

// MulVecReference computes the float32 reference product, the oracle to
// compare simulated outputs against.
func (m *Matrix) MulVecReference(v []float32) ([]float32, error) {
	return m.m.MulVec(bf16.FromFloat32Slice(v))
}

// PlacedMatrix is a matrix resident in a system's DRAM under the
// system's layout (chunk-interleaved for Newton, row-major for the
// no-reuse variant).
type PlacedMatrix struct {
	mat *Matrix
	p   *layout.Placement
	// owner is the System or IdealBaseline that loaded the matrix, the
	// only one whose banks hold its rows.
	owner any
	// ecc is the host-side SEC-DED check store, present when the system
	// was configured with Fault.ECC (encode-on-place, check-on-scrub).
	ecc *fault.Store
}

// Matrix returns the placed matrix.
func (pm *PlacedMatrix) Matrix() *Matrix { return pm.mat }

// ErrNotLoadedHere is returned when a System or IdealBaseline is handed
// a PlacedMatrix or PlacedModel it did not load: a nil one, or one whose
// rows live in another system's banks.
var ErrNotLoadedHere = errors.New("newton: matrix or model is not loaded on this system")

// on checks that sys loaded the matrix; every method taking a
// PlacedMatrix calls it first.
func (pm *PlacedMatrix) on(sys any) error {
	if pm == nil || pm.owner != sys {
		return ErrNotLoadedHere
	}
	return nil
}

// Load places a matrix into the system's DRAM, claiming the next free
// DRAM-row span in every bank so multiple matrices (a model's layers)
// coexist.
func (s *System) Load(m *Matrix) (*PlacedMatrix, error) {
	p, err := s.ctrl.Place(m.m)
	if err != nil {
		return nil, err
	}
	pm := &PlacedMatrix{mat: m, p: p, owner: s}
	if s.cfg.Fault.Enabled && s.cfg.Fault.ECC {
		if pm.ecc, err = fault.NewStore(p, s.channels()); err != nil {
			return nil, err
		}
	}
	return pm, nil
}

// MatVec executes one matrix-vector product on the system and returns
// the output vector (the raw product; activations are the model API's
// concern) along with run statistics.
func (s *System) MatVec(pm *PlacedMatrix, v []float32) ([]float32, RunStats, error) {
	if err := pm.on(s); err != nil {
		return nil, RunStats{}, err
	}
	res, err := s.ctrl.RunMVM(pm.p, bf16.FromFloat32Slice(v))
	if err != nil {
		return nil, RunStats{}, err
	}
	if _, err := s.ScrubPeriodically(pm); err != nil {
		return nil, RunStats{}, err
	}
	return res.Output, statsFromResult(res), nil
}

// MatVecBatch executes a k-way batch as k sequential products, which is
// exactly what Newton does with batches: its compute cannot exploit the
// matrix reuse batching creates (§V-D), so batch time scales linearly.
func (s *System) MatVecBatch(pm *PlacedMatrix, vs [][]float32) ([][]float32, RunStats, error) {
	if err := pm.on(s); err != nil {
		return nil, RunStats{}, err
	}
	outs := make([][]float32, 0, len(vs))
	var agg RunStats
	for i, v := range vs {
		out, st, err := s.MatVec(pm, v)
		if err != nil {
			return nil, RunStats{}, fmt.Errorf("newton: batch item %d: %w", i, err)
		}
		outs = append(outs, out)
		agg = agg.add(st)
	}
	return outs, agg, nil
}

// Scrub re-loads a placed matrix from the host's copy over the external
// interface, discarding any accumulated transient errors - the paper's
// ECC strategy (§III-E, suggested once per ~1000 inputs). The write
// stream is paid on the simulated clock and counted in later RunStats.
func (s *System) Scrub(pm *PlacedMatrix) error {
	if err := pm.on(s); err != nil {
		return err
	}
	return s.ctrl.Scrub(pm.p)
}

// resultOf is a seam for stats conversion shared with the baseline.
func statsFromResult(res *host.Result) RunStats {
	return RunStats{
		Cycles:               res.Cycles,
		Commands:             res.Stats.TotalCommands(),
		Activations:          res.Stats.Activations,
		Refreshes:            res.Stats.Refreshes,
		ExternalBytesRead:    res.Stats.BytesRead,
		ExternalBytesWritten: res.Stats.BytesWritten,
		InternalBytesRead:    res.Stats.InternalBytesRead,
		result:               res,
	}
}
