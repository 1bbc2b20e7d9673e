package dram

import (
	"errors"
	"fmt"
	"sort"
)

// BankState is the coarse state of a bank's row buffer.
type BankState uint8

const (
	// BankIdle means all rows are precharged.
	BankIdle BankState = iota
	// BankActive means one row is latched in the sense amplifiers.
	BankActive
)

// String implements fmt.Stringer.
func (s BankState) String() string {
	switch s {
	case BankIdle:
		return "idle"
	case BankActive:
		return "active"
	}
	return fmt.Sprintf("BankState(%d)", uint8(s))
}

// Bank models one DRAM bank: a state machine over the row buffer plus
// per-bank timing horizons, and functional storage for the rows that have
// been written. Rows are allocated lazily (a 16-bank channel has 512 MB
// of cells; workloads touch a small fraction).
type Bank struct {
	geo Geometry

	state   BankState
	openRow int
	// open is the open row's storage, looked up on the row's first
	// column access and dropped at the next activate or precharge, so
	// the compute stream's per-column reads skip the row map.
	open []byte

	// Timing horizons: the earliest cycle at which each command class may
	// be issued to this bank. Maintained by the channel's checker.
	nextACT int64
	nextPRE int64
	nextCol int64 // earliest RD/WR/COMP column access

	rows map[int][]byte
}

// newBank returns an idle bank with no stored data.
func newBank(geo Geometry) *Bank {
	return &Bank{geo: geo, openRow: -1, rows: make(map[int][]byte)}
}

// State returns the bank's row-buffer state.
func (b *Bank) State() BankState { return b.state }

// OpenRow returns the currently activated row, or -1 when idle.
func (b *Bank) OpenRow() int {
	if b.state != BankActive {
		return -1
	}
	return b.openRow
}

// activate latches row into the sense amplifiers at the given cycle and
// advances the bank's horizons. The caller has already checked legality.
func (b *Bank) activate(row int, cycle int64, t *Timing) {
	b.state = BankActive
	b.openRow = row
	b.open = nil
	b.nextCol = cycle + t.TRCD
	b.nextPRE = cycle + t.TRAS
	b.nextACT = cycle + t.TRC()
}

// precharge closes the open row at the given cycle.
func (b *Bank) precharge(cycle int64, t *Timing) {
	b.state = BankIdle
	b.openRow = -1
	b.open = nil
	if next := cycle + t.TRP; next > b.nextACT {
		b.nextACT = next
	}
}

// columnAccess records a column command (read, write, or COMP column
// access) at the given cycle. write extends the precharge horizon by the
// write-recovery time.
func (b *Bank) columnAccess(cycle int64, t *Timing, write bool) {
	if next := cycle + t.TCCD; next > b.nextCol {
		b.nextCol = next
	}
	horizon := cycle + t.TCCD
	if write {
		horizon = cycle + t.TWR
	}
	if horizon > b.nextPRE {
		b.nextPRE = horizon
	}
}

// row returns the backing storage for row r, allocating zeroed storage on
// first touch.
func (b *Bank) row(r int) []byte {
	data, ok := b.rows[r]
	if !ok {
		data = make([]byte, b.geo.RowBytes())
		b.rows[r] = data
	}
	return data
}

// ColumnView returns the open row's column I/O without copying: the
// zero-allocation read path of the compute commands on both simulator
// cores. The view is only valid until the row's data next changes, and
// callers must not write through it: stored data changes only through
// WriteColumn and MutateRow.
func (b *Bank) ColumnView(col int) ([]byte, error) {
	// The legality test is inline, so the compute stream's per-column
	// reads make no second call.
	if b.state != BankActive || col < 0 || col >= b.geo.Cols {
		return nil, b.columnErr(col, false)
	}
	cb := b.geo.ColBytes()
	return b.openData()[col*cb : (col+1)*cb], nil
}

// columnErr reports why column col of the open row cannot be read (or,
// with write, written), nil when it can: the bank state first, then the
// column range. The channel's transition checks commands with it.
func (b *Bank) columnErr(col int, write bool) error {
	if b.state != BankActive {
		if write {
			return errors.New("dram: write to bank with no open row")
		}
		return errors.New("dram: read from bank with no open row")
	}
	if col < 0 || col >= b.geo.Cols {
		return fmt.Errorf("dram: column %d out of range [0,%d)", col, b.geo.Cols)
	}
	return nil
}

// openData returns the open row's storage. Row storage is never
// reallocated once created, so the cached slice stays valid across
// writes.
func (b *Bank) openData() []byte {
	if b.open == nil {
		b.open = b.row(b.openRow)
	}
	return b.open
}

// WriteColumn stores data into column I/O col of the open row.
func (b *Bank) WriteColumn(col int, data []byte) error {
	if err := b.columnErr(col, true); err != nil {
		return err
	}
	cb := b.geo.ColBytes()
	if len(data) != cb {
		return fmt.Errorf("dram: write data is %d bytes, column I/O is %d", len(data), cb)
	}
	copy(b.openData()[col*cb:], data)
	return nil
}

// PeekRow returns a copy of a row's stored image without timing effects,
// for debugging and tests. A row never written reads as zeros and stays
// unallocated, so a peek leaves StoredRowIDs unchanged.
func (b *Bank) PeekRow(row int) ([]byte, error) {
	if row < 0 || row >= b.geo.Rows {
		return nil, fmt.Errorf("dram: row %d out of range [0,%d)", row, b.geo.Rows)
	}
	out := make([]byte, b.geo.RowBytes())
	copy(out, b.rows[row])
	return out, nil
}

// StoredRowIDs returns the row numbers that hold data, ascending, so
// callers that walk the stored state visit rows in a deterministic
// order regardless of map iteration.
func (b *Bank) StoredRowIDs() []int {
	ids := make([]int, 0, len(b.rows))
	for r := range b.rows {
		ids = append(ids, r)
	}
	sort.Ints(ids)
	return ids
}

// MutateRow exposes a row's backing storage to fn for in-place
// modification, bypassing timing: the back door fault models use to
// flip stored bits (a DRAM cell upset has no command-bus signature).
// The row is allocated zeroed on first touch, like every other access.
func (b *Bank) MutateRow(row int, fn func(data []byte)) error {
	if row < 0 || row >= b.geo.Rows {
		return fmt.Errorf("dram: row %d out of range [0,%d)", row, b.geo.Rows)
	}
	fn(b.row(row))
	return nil
}
