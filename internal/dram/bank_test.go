package dram

import (
	"bytes"
	"testing"
)

func testGeometry() Geometry {
	g := HBM2EGeometry(1)
	g.Rows = 64 // keep tests small
	return g
}

func TestBankStateMachine(t *testing.T) {
	g := testGeometry()
	tt := ConventionalTiming()
	b := newBank(g)
	if b.State() != BankIdle || b.OpenRow() != -1 {
		t.Fatal("new bank not idle")
	}
	b.activate(5, 100, &tt)
	if b.State() != BankActive || b.OpenRow() != 5 {
		t.Fatalf("after activate: state=%v row=%d", b.State(), b.OpenRow())
	}
	if b.nextCol != 100+tt.TRCD {
		t.Errorf("nextCol = %d, want %d (tRCD)", b.nextCol, 100+tt.TRCD)
	}
	if b.nextPRE != 100+tt.TRAS {
		t.Errorf("nextPRE = %d, want %d (tRAS)", b.nextPRE, 100+tt.TRAS)
	}
	if b.nextACT != 100+tt.TRC() {
		t.Errorf("nextACT = %d, want %d (tRC)", b.nextACT, 100+tt.TRC())
	}
	b.precharge(200, &tt)
	if b.State() != BankIdle || b.OpenRow() != -1 {
		t.Error("after precharge: bank not idle")
	}
	if b.nextACT != 200+tt.TRP {
		t.Errorf("nextACT after PRE = %d, want %d", b.nextACT, 200+tt.TRP)
	}
}

func TestBankReadWrite(t *testing.T) {
	g := testGeometry()
	tt := ConventionalTiming()
	b := newBank(g)
	if _, err := b.ColumnView(0); err == nil {
		t.Error("read from idle bank accepted")
	}
	b.activate(3, 0, &tt)
	data := bytes.Repeat([]byte{0xAB}, g.ColBytes())
	if err := b.WriteColumn(7, data); err != nil {
		t.Fatal(err)
	}
	got, err := b.ColumnView(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("read-after-write mismatch")
	}
	// An untouched column reads as zeros.
	zero, err := b.ColumnView(8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(zero, make([]byte, g.ColBytes())) {
		t.Error("untouched column not zero")
	}
}

func TestBankReadWriteErrors(t *testing.T) {
	g := testGeometry()
	tt := ConventionalTiming()
	b := newBank(g)
	b.activate(0, 0, &tt)
	if _, err := b.ColumnView(-1); err == nil {
		t.Error("negative column accepted")
	}
	if _, err := b.ColumnView(g.Cols); err == nil {
		t.Error("out-of-range column accepted")
	}
	if err := b.WriteColumn(0, []byte{1}); err == nil {
		t.Error("short write accepted")
	}
	if err := b.WriteColumn(g.Cols, make([]byte, g.ColBytes())); err == nil {
		t.Error("out-of-range write accepted")
	}
	idle := newBank(g)
	if err := idle.WriteColumn(0, make([]byte, g.ColBytes())); err == nil {
		t.Error("write to idle bank accepted")
	}
}

func TestBankLoadPeekRow(t *testing.T) {
	g := testGeometry()
	b := newBank(g)

	// Peeking a row that was never written reads zeros and allocates
	// nothing: fault injection walks StoredRowIDs, so a peek must not
	// plant a row there.
	zero, err := b.PeekRow(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(zero, make([]byte, g.RowBytes())) {
		t.Error("unwritten row does not read as zeros")
	}
	if ids := b.StoredRowIDs(); len(ids) != 0 {
		t.Errorf("peek changed the bank: stored rows %v", ids)
	}

	img := make([]byte, g.RowBytes())
	for i := range img {
		img[i] = byte(i)
	}
	if err := b.MutateRow(10, func(data []byte) { copy(data, img) }); err != nil {
		t.Fatal(err)
	}
	got, err := b.PeekRow(10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Error("PeekRow mismatch")
	}
	if err := b.MutateRow(-1, func([]byte) {}); err == nil {
		t.Error("negative row accepted")
	}
	if err := b.MutateRow(g.Rows, func([]byte) {}); err == nil {
		t.Error("out-of-range row accepted")
	}
	if _, err := b.PeekRow(g.Rows); err == nil {
		t.Error("out-of-range peek accepted")
	}
}

func TestBankLazyAllocation(t *testing.T) {
	g := testGeometry()
	tt := ConventionalTiming()
	b := newBank(g)
	if len(b.StoredRowIDs()) != 0 {
		t.Error("fresh bank stores rows")
	}
	b.activate(1, 0, &tt)
	if _, err := b.ColumnView(0); err != nil {
		t.Fatal(err)
	}
	if len(b.StoredRowIDs()) != 1 {
		t.Errorf("after one touch %d stored rows, want 1", len(b.StoredRowIDs()))
	}
}

func TestColumnAccessExtendsPrecharge(t *testing.T) {
	g := testGeometry()
	tt := ConventionalTiming()
	b := newBank(g)
	b.activate(0, 0, &tt)
	// A write near tRAS expiry pushes nextPRE out by tWR.
	at := tt.TRAS - 1
	b.columnAccess(at, &tt, true)
	if b.nextPRE != at+tt.TWR {
		t.Errorf("nextPRE = %d, want %d (write recovery)", b.nextPRE, at+tt.TWR)
	}
	// A later read only needs tCCD before precharge.
	at2 := at + tt.TWR
	b.columnAccess(at2, &tt, false)
	if b.nextPRE != at2+tt.TCCD {
		t.Errorf("nextPRE = %d, want %d (read to PRE)", b.nextPRE, at2+tt.TCCD)
	}
}

func TestBankStateString(t *testing.T) {
	if BankIdle.String() != "idle" || BankActive.String() != "active" {
		t.Error("BankState strings wrong")
	}
	if BankState(9).String() == "" {
		t.Error("unknown state string empty")
	}
}
