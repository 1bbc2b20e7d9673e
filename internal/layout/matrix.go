// Package layout implements the filter-matrix data layouts at the heart
// of Newton's reuse story: the DRAM-row-wide chunk-interleaved layout of
// Fig. 3 (full input reuse, minimal output buffering) and the row-major
// alternative evaluated as Newton-no-reuse (§III-C). Both map matrix
// elements to (channel, bank, DRAM row, column I/O, lane) coordinates,
// preload them into simulated DRAM, and expose the tile structure the
// host scheduler walks.
package layout

import (
	"fmt"
	"math/rand"

	"newton/internal/bf16"
)

// Matrix is a dense row-major bfloat16 matrix: the filter/weight operand
// of the matrix-vector products Newton accelerates.
type Matrix struct {
	Rows, Cols int
	Data       bf16.Vector // len = Rows*Cols, row-major
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("layout: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make(bf16.Vector, rows*cols)}
}

// MatrixFromFloat32 builds a matrix from row-major float32 data, rounding
// each element to bfloat16.
func MatrixFromFloat32(rows, cols int, data []float32) (*Matrix, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("layout: %dx%d matrix needs %d elements, got %d",
			rows, cols, rows*cols, len(data))
	}
	m := NewMatrix(rows, cols)
	for i, f := range data {
		m.Data[i] = bf16.FromFloat32(f)
	}
	return m, nil
}

// RandomMatrix returns a matrix with deterministic pseudo-random entries
// in [-1, 1), already representable in bfloat16 (they are rounded, so
// reloading them is lossless).
//
// Element i is bf16.FromFloat32(r.Float32()*2 - 1) for the i-th call on
// r := rand.New(rand.NewSource(seed)), bit for bit, but the draws come
// from draws, which continues that source's stream inline rather than
// through rand.Rand's Float32 → Float64 → Int63 call chain. Float32
// resamples when float32(Float64()) rounds to 1 and Float64 resamples
// when its own quotient is 1; a quotient of 1 also rounds to 1 in
// float32, so the one test below consumes exactly the draws both rules
// do.
func RandomMatrix(rows, cols int, seed int64) *Matrix {
	m := NewMatrix(rows, cols)
	d := newDraws(seed)
	buf, k := d.first(), 0
	data := m.Data
	for i := range data {
		var f float32
		for {
			if k == len(buf) {
				buf, k = d.refill(), 0
			}
			x := int64(buf[k] &^ (1 << 63)) // Int63
			k++
			if f = float32(float64(x) / (1 << 63)); f != 1 {
				break
			}
		}
		data[i] = bf16.FromFloat32(f*2 - 1)
	}
	return m
}

// Go's rand.NewSource is an additive lagged-Fibonacci generator:
// x[n] = x[n-lagLong] + x[n-lagShort] mod 2^64, and Int63 returns x[n]
// with the top bit cleared.
const (
	lagLong  = 607
	lagShort = 273
	// drawBlock is how many draws one refill computes.
	drawBlock = 4096
)

// draws is rand.NewSource(seed)'s output stream, produced a block at a
// time. It primes the lag window with the source's first lagLong
// Uint64 values, which are also the stream's first lagLong draws, and
// continues the recurrence from there. The sequence is fixed by Go's
// compatibility promise for math/rand; TestRandomMatrixMatchesMathRand
// re-proves it against rand.Rand on every test run.
type draws struct {
	// x holds the lag window followed by the newest block; its last
	// lagLong values are always the newest draws, so a refill slides
	// them to the front and extends them.
	x [lagLong + drawBlock]uint64
}

func newDraws(seed int64) *draws {
	d := &draws{}
	src := rand.NewSource(seed).(rand.Source64)
	for i := drawBlock; i < len(d.x); i++ {
		d.x[i] = src.Uint64()
	}
	return d
}

// first returns the stream's first lagLong draws.
func (d *draws) first() []uint64 { return d.x[drawBlock:] }

// refill computes and returns the next drawBlock draws. The slice is
// valid until the next refill.
func (d *draws) refill() []uint64 {
	copy(d.x[:lagLong], d.x[drawBlock:])
	for n := lagLong; n < len(d.x); n++ {
		d.x[n] = d.x[n-lagLong] + d.x[n-lagShort]
	}
	return d.x[lagLong:]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) bf16.Num {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v bf16.Num) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("layout: index (%d,%d) out of %dx%d matrix", i, j, m.Rows, m.Cols))
	}
}

// Row returns matrix row i without copying.
func (m *Matrix) Row(i int) bf16.Vector {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("layout: row %d out of %dx%d matrix", i, m.Rows, m.Cols))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// MulVec computes the reference matrix-vector product in float32 (no
// intermediate bfloat16 rounding), the oracle simulations are checked
// against.
func (m *Matrix) MulVec(v bf16.Vector) ([]float32, error) {
	if len(v) != m.Cols {
		return nil, fmt.Errorf("layout: vector length %d, matrix has %d columns", len(v), m.Cols)
	}
	out := make([]float32, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = bf16.DotFloat32(m.Row(i), v)
	}
	return out, nil
}

// SizeBytes returns the matrix footprint in bytes (2 per element), the
// quantity that bounds any non-PIM architecture.
func (m *Matrix) SizeBytes() int64 { return int64(m.Rows) * int64(m.Cols) * 2 }
