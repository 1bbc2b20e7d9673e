package dram

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

func testConfig() Config {
	return Config{Geometry: testGeometry(), Timing: AiMTiming()}
}

func newTestChannel(t *testing.T) *Channel {
	t.Helper()
	ch, err := NewChannel(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// mustIssue issues at the earliest legal cycle and returns that cycle.
func mustIssue(t *testing.T, ch *Channel, cmd Command, from int64) int64 {
	t.Helper()
	at, _, err := ch.IssueTimed(&cmd, from)
	if err != nil {
		t.Fatalf("issue %v from %d: %v", cmd, from, err)
	}
	return at
}

// mustFail requires IssueTimed to reject cmd for a state reason.
func mustFail(t *testing.T, ch *Channel, cmd Command, from int64, what string) {
	t.Helper()
	if _, _, err := ch.IssueTimed(&cmd, from); err == nil {
		t.Fatalf("%s accepted", what)
	}
}

func TestReadNeedsTRCD(t *testing.T) {
	ch := newTestChannel(t)
	tt := ch.Config().Timing
	mustIssue(t, ch, Command{Kind: KindACT, Bank: 0, Row: 1}, 0)
	// Reading immediately violates tRCD.
	if got := ch.EarliestIssue(Command{Kind: KindRD, Bank: 0, Col: 0}, 1); got != tt.TRCD {
		t.Fatalf("read earliest from cycle 1 = %d, want %d (tRCD)", got, tt.TRCD)
	}
	if at := mustIssue(t, ch, Command{Kind: KindRD, Bank: 0, Col: 0}, 1); at != tt.TRCD {
		t.Fatalf("read issued at %d, want %d", at, tt.TRCD)
	}
}

func TestPrechargeNeedsTRAS(t *testing.T) {
	ch := newTestChannel(t)
	tt := ch.Config().Timing
	mustIssue(t, ch, Command{Kind: KindACT, Bank: 2, Row: 0}, 0)
	if got := ch.EarliestIssue(Command{Kind: KindPRE, Bank: 2}, tt.TRAS-1); got != tt.TRAS {
		t.Fatalf("precharge earliest from tRAS-1 = %d, want %d (tRAS)", got, tt.TRAS)
	}
	if at := mustIssue(t, ch, Command{Kind: KindPRE, Bank: 2}, tt.TRAS); at != tt.TRAS {
		t.Fatalf("precharge issued at %d, want %d", at, tt.TRAS)
	}
}

func TestActAfterPrechargeNeedsTRP(t *testing.T) {
	ch := newTestChannel(t)
	tt := ch.Config().Timing
	a := mustIssue(t, ch, Command{Kind: KindACT, Bank: 0, Row: 0}, 0)
	p := mustIssue(t, ch, Command{Kind: KindPRE, Bank: 0}, a+tt.TRAS)
	if got := ch.EarliestIssue(Command{Kind: KindACT, Bank: 0, Row: 1}, p); got != p+tt.TRP {
		t.Errorf("next ACT earliest = %d, want %d", got, p+tt.TRP)
	}
}

func TestSameBankActNeedsTRC(t *testing.T) {
	ch := newTestChannel(t)
	tt := ch.Config().Timing
	mustIssue(t, ch, Command{Kind: KindACT, Bank: 0, Row: 0}, 0)
	mustIssue(t, ch, Command{Kind: KindPRE, Bank: 0}, tt.TRAS)
	// tRC from the first ACT also binds: earliest is max(tRC, PRE+tRP).
	want := tt.TRAS + tt.TRP
	if tt.TRC() > want {
		want = tt.TRC()
	}
	if got := ch.EarliestIssue(Command{Kind: KindACT, Bank: 0, Row: 1}, 0); got != want {
		t.Errorf("same-bank re-ACT earliest = %d, want %d", got, want)
	}
}

func TestActOnOpenBankRejected(t *testing.T) {
	ch := newTestChannel(t)
	mustIssue(t, ch, Command{Kind: KindACT, Bank: 0, Row: 0}, 0)
	mustFail(t, ch, Command{Kind: KindACT, Bank: 0, Row: 1}, 0, "ACT on open bank")
}

func TestTRRDBetweenBanks(t *testing.T) {
	ch := newTestChannel(t)
	tt := ch.Config().Timing
	a := mustIssue(t, ch, Command{Kind: KindACT, Bank: 0, Row: 0}, 0)
	if got := ch.EarliestIssue(Command{Kind: KindACT, Bank: 1, Row: 0}, a); got != a+tt.TRRD {
		t.Errorf("cross-bank ACT earliest = %d, want %d (tRRD)", got, a+tt.TRRD)
	}
}

func TestTFAWSlidingWindow(t *testing.T) {
	// Use conventional timing, where tFAW (32) > 4*tRRD (24) so the
	// window, not tRRD, binds the fifth activation.
	ch, err := NewChannel(Config{Geometry: testGeometry(), Timing: ConventionalTiming()})
	if err != nil {
		t.Fatal(err)
	}
	tt := ch.Config().Timing
	// Issue four ACTs as fast as tRRD allows, then the fifth must wait
	// for the first to age out of the tFAW window.
	var times []int64
	from := int64(0)
	for b := 0; b < 4; b++ {
		at := mustIssue(t, ch, Command{Kind: KindACT, Bank: b, Row: 0}, from)
		times = append(times, at)
		from = at
	}
	want := times[0] + tt.TFAW
	if got := ch.EarliestIssue(Command{Kind: KindACT, Bank: 4, Row: 0}, from); got != want {
		t.Errorf("fifth ACT earliest = %d, want %d (tFAW)", got, want)
	}
	// Once the fifth issues, the sixth waits for the second to expire.
	at5 := mustIssue(t, ch, Command{Kind: KindACT, Bank: 4, Row: 0}, want)
	if got := ch.EarliestIssue(Command{Kind: KindACT, Bank: 5, Row: 0}, at5); got != times[1]+tt.TFAW {
		t.Errorf("sixth ACT earliest = %d, want %d", got, times[1]+tt.TFAW)
	}
}

func TestGACTConsumesWholeWindow(t *testing.T) {
	ch := newTestChannel(t)
	tt := ch.Config().Timing
	a := mustIssue(t, ch, Command{Kind: KindGACT, Cluster: 0, Row: 0}, 0)
	// A ganged activation of four banks fills the window: the next
	// activation of any kind waits a full tFAW.
	if got := ch.EarliestIssue(Command{Kind: KindGACT, Cluster: 1, Row: 0}, a); got != a+tt.TFAW {
		t.Errorf("next G_ACT earliest = %d, want %d", got, a+tt.TFAW)
	}
	if got := ch.EarliestIssue(Command{Kind: KindACT, Bank: 8, Row: 0}, a); got != a+tt.TFAW {
		t.Errorf("next ACT earliest = %d, want %d", got, a+tt.TFAW)
	}
}

func TestGACTOpensWholeCluster(t *testing.T) {
	ch := newTestChannel(t)
	mustIssue(t, ch, Command{Kind: KindGACT, Cluster: 1, Row: 7}, 0)
	for b := 4; b < 8; b++ {
		if ch.Bank(b).OpenRow() != 7 {
			t.Errorf("bank %d open row = %d, want 7", b, ch.Bank(b).OpenRow())
		}
	}
	if ch.Bank(0).State() != BankIdle {
		t.Error("bank outside cluster activated")
	}
}

func TestGACTClusterRange(t *testing.T) {
	ch := newTestChannel(t)
	mustFail(t, ch, Command{Kind: KindGACT, Cluster: 99, Row: 0}, 0, "out-of-range cluster")
}

func TestTCCDBetweenColumnCommands(t *testing.T) {
	ch := newTestChannel(t)
	tt := ch.Config().Timing
	mustIssue(t, ch, Command{Kind: KindACT, Bank: 0, Row: 0}, 0)
	mustIssue(t, ch, Command{Kind: KindACT, Bank: 1, Row: 0}, 0)
	// Wait until both banks' tRCD has long expired, so only the shared
	// global bus (tCCD) constrains the second read.
	r1 := mustIssue(t, ch, Command{Kind: KindRD, Bank: 0, Col: 0}, 50)
	if got := ch.EarliestIssue(Command{Kind: KindRD, Bank: 1, Col: 0}, r1); got != r1+tt.TCCD {
		t.Errorf("next RD earliest = %d, want %d (tCCD)", got, r1+tt.TCCD)
	}
}

func TestDualCommandBuses(t *testing.T) {
	ch := newTestChannel(t)
	mustIssue(t, ch, Command{Kind: KindACT, Bank: 0, Row: 0}, 0)
	tt := ch.Config().Timing
	rd := mustIssue(t, ch, Command{Kind: KindRD, Bank: 0, Col: 0}, tt.TRCD)
	// A row-bus command may issue in the same cycle as the column-bus
	// read: the buses are independent (what lets Ideal Non-PIM hide
	// activations under streaming).
	if got := ch.EarliestIssue(Command{Kind: KindACT, Bank: 1, Row: 0}, rd); got != rd {
		t.Errorf("row-bus ACT earliest = %d, want %d (independent buses)", got, rd)
	}
	// But another column command must wait a slot.
	if got := ch.EarliestIssue(Command{Kind: KindRD, Bank: 0, Col: 1}, rd); got != rd+tt.TCCD {
		t.Errorf("col-bus RD earliest = %d, want %d", got, rd+tt.TCCD)
	}
}

func TestRefreshRequiresIdleBanks(t *testing.T) {
	ch := newTestChannel(t)
	mustIssue(t, ch, Command{Kind: KindACT, Bank: 0, Row: 0}, 0)
	mustFail(t, ch, Command{Kind: KindREF}, 0, "refresh with open bank")
}

func TestRefreshBlocksActivationsForTRFC(t *testing.T) {
	ch := newTestChannel(t)
	tt := ch.Config().Timing
	r := mustIssue(t, ch, Command{Kind: KindREF}, 0)
	if got := ch.EarliestIssue(Command{Kind: KindACT, Bank: 3, Row: 0}, r); got != r+tt.TRFC {
		t.Errorf("ACT after REF earliest = %d, want %d (tRFC)", got, r+tt.TRFC)
	}
}

func TestWriteReadBack(t *testing.T) {
	ch := newTestChannel(t)
	tt := ch.Config().Timing
	g := ch.Config().Geometry
	mustIssue(t, ch, Command{Kind: KindACT, Bank: 5, Row: 9}, 0)
	data := make([]byte, g.ColBytes())
	for i := range data {
		data[i] = byte(i * 3)
	}
	wr := Command{Kind: KindWR, Bank: 5, Col: 4, Data: data}
	mustIssue(t, ch, wr, tt.TRCD)
	// IssueTimed moves no data: the caller stores WR payloads and reads
	// RD columns from the open row, as the host's issuer does.
	if err := ch.Bank(5).WriteColumn(wr.Col, wr.Data); err != nil {
		t.Fatal(err)
	}
	rd := Command{Kind: KindRD, Bank: 5, Col: 4}
	at, ready, err := ch.IssueTimed(&rd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ready != at+tt.TAA {
		t.Errorf("DataReady = %d, want %d (tAA)", ready, at+tt.TAA)
	}
	got, err := ch.Bank(5).ColumnView(rd.Col)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("readback mismatch at %d", i)
		}
	}
}

func TestCOMPRequiresAllBanksOpen(t *testing.T) {
	ch := newTestChannel(t)
	mustIssue(t, ch, Command{Kind: KindGACT, Cluster: 0, Row: 0}, 0)
	mustFail(t, ch, Command{Kind: KindCOMP, Col: 0}, 0, "COMP with closed banks")
}

func TestCOMPReadsAllBanks(t *testing.T) {
	ch := newTestChannel(t)
	g := ch.Config().Geometry
	for cl := 0; cl < g.Clusters(); cl++ {
		mustIssue(t, ch, Command{Kind: KindGACT, Cluster: cl, Row: 0}, 0)
	}
	before := ch.Stats()
	mustIssue(t, ch, Command{Kind: KindCOMP, Col: 0}, 0)
	// The channel owns COMP's timing and accounting: one column read per
	// bank, none crossing the external bus. The data each bank feeds its
	// MAC unit is the aim package's (TestCOMPSequenceComputesDot).
	d := ch.Stats().Diff(before)
	if d.ColumnReads != int64(g.Banks) || d.InternalBytesRead != int64(g.Banks*g.ColBytes()) || d.BytesRead != 0 {
		t.Errorf("COMP recorded %d column reads, %d internal and %d external bytes; want %d, %d and 0",
			d.ColumnReads, d.InternalBytesRead, d.BytesRead, g.Banks, g.Banks*g.ColBytes())
	}
}

func TestEarliestIssueIsSufficientProperty(t *testing.T) {
	// Property: issuing any command at its EarliestIssue cycle either
	// succeeds or fails for a state (not timing) reason. Drive a random
	// but state-aware command sequence.
	cfg := testConfig()
	ch, err := NewChannel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	g := cfg.Geometry
	now := int64(0)
	opened := 0
	for i := 0; i < 3000; i++ {
		var cmd Command
		switch rng.Intn(6) {
		case 0:
			b := rng.Intn(g.Banks)
			if ch.Bank(b).State() == BankActive {
				cmd = Command{Kind: KindRD, Bank: b, Col: rng.Intn(g.Cols)}
			} else {
				cmd = Command{Kind: KindACT, Bank: b, Row: rng.Intn(g.Rows)}
				opened++
			}
		case 1:
			b := rng.Intn(g.Banks)
			if ch.Bank(b).State() == BankActive {
				cmd = Command{Kind: KindWR, Bank: b, Col: rng.Intn(g.Cols),
					Data: make([]byte, g.ColBytes())}
			} else {
				cmd = Command{Kind: KindACT, Bank: b, Row: rng.Intn(g.Rows)}
			}
		case 2:
			cmd = Command{Kind: KindPRE, Bank: rng.Intn(g.Banks)}
		case 3:
			cmd = Command{Kind: KindPREA}
		case 4:
			allIdle := true
			for b := 0; b < g.Banks; b++ {
				if ch.Bank(b).State() != BankIdle {
					allIdle = false
					break
				}
			}
			if !allIdle {
				cmd = Command{Kind: KindPREA}
			} else {
				cmd = Command{Kind: KindREF}
			}
		default:
			cl := rng.Intn(g.Clusters())
			lo := cl * g.BanksPerCluster
			free := true
			for b := lo; b < lo+g.BanksPerCluster; b++ {
				if ch.Bank(b).State() != BankIdle {
					free = false
					break
				}
			}
			if free {
				cmd = Command{Kind: KindGACT, Cluster: cl, Row: rng.Intn(g.Rows)}
			} else {
				cmd = Command{Kind: KindPREA}
			}
		}
		at := ch.EarliestIssue(cmd, now)
		if at < now {
			t.Fatalf("step %d: EarliestIssue(%v) went backwards: %d < %d", i, cmd, at, now)
		}
		got, _, err := ch.IssueTimed(&cmd, at)
		if err != nil || got != at {
			t.Fatalf("step %d: issue %v from its earliest cycle %d: issued at %d, %v", i, cmd, at, got, err)
		}
		now = at
	}
	if ch.Stats().TotalCommands() != 3000 {
		t.Errorf("stats counted %d commands, want 3000", ch.Stats().TotalCommands())
	}
}

// TestChannelsStartOnCacheLines holds every channel to a 64-byte
// boundary. A Channel is 496 bytes, in Go's 512-byte size class, whose
// objects the allocator places on cache lines. Deleting the channel
// observer once shrank it to 480 bytes: 12 of 24 channels then started
// mid-line, and cold MVMs ran about 6% slower (DESIGN §6). A change to
// Channel's fields must keep every channel on a cache line.
func TestChannelsStartOnCacheLines(t *testing.T) {
	cfg := Config{Geometry: HBM2EGeometry(24), Timing: AiMTiming()}
	chs := make([]*Channel, cfg.Geometry.Channels)
	misaligned := 0
	for i := range chs {
		ch, err := NewChannel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		chs[i] = ch
		if uintptr(unsafe.Pointer(ch))%64 != 0 {
			misaligned++
		}
	}
	if misaligned > 0 {
		t.Errorf("%d of %d channels start off a 64-byte boundary; a Channel is %d bytes",
			misaligned, len(chs), unsafe.Sizeof(Channel{}))
	}
}

func TestNewChannelRejectsBadConfig(t *testing.T) {
	cfg := testConfig()
	cfg.Geometry.Banks = 0
	if _, err := NewChannel(cfg); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindACT; k <= KindREADRES; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", k)
		}
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind string empty")
	}
}

func TestCommandStrings(t *testing.T) {
	cases := []struct {
		cmd  Command
		want string
	}{
		{Command{Kind: KindACT, Bank: 3, Row: 17}, "ACT b3 r17"},
		{Command{Kind: KindPRE, Bank: 1}, "PRE b1"},
		{Command{Kind: KindGACT, Cluster: 2, Row: 5}, "G_ACT cl2 r5"},
		{Command{Kind: KindCOMP, Col: 9}, "COMP c9"},
		{Command{Kind: KindREADRES}, "READRES"},
	}
	for _, c := range cases {
		if got := c.cmd.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// TestFailedCommandChangesNothing holds the one way into the state
// transition to its contract: for every reason transition rejects a
// command, IssueTimed fails with that reason and leaves the channel as
// it found it — its stats, its open rows, and the earliest cycle of one
// probe command per kind.
func TestFailedCommandChangesNothing(t *testing.T) {
	g := testGeometry()
	cb := g.ColBytes()
	closed := g.BanksPerCluster // the first bank outside cluster 0
	// open is how many clusters a row's channel has opened at row 1.
	all := g.Clusters()
	rows := []struct {
		name   string
		open   int
		cmd    Command
		reason string
	}{
		{"ACT bank range", 0, Command{Kind: KindACT, Bank: g.Banks}, "bank out of range"},
		{"ACT open bank", 1, Command{Kind: KindACT, Bank: 2, Row: 3}, "bank 2 already has row 1 open"},
		{"ACT row range", 0, Command{Kind: KindACT, Row: g.Rows}, "row out of range"},
		{"G_ACT cluster range", 0, Command{Kind: KindGACT, Cluster: all}, fmt.Sprintf("cluster %d out of range [0,%d)", all, all)},
		{"G_ACT row range", 0, Command{Kind: KindGACT, Cluster: 1, Row: -1}, "row out of range"},
		{"G_ACT open bank", 1, Command{Kind: KindGACT, Row: 3}, "bank 0 already has row 1 open"},
		{"PRE bank range", 1, Command{Kind: KindPRE, Bank: -1}, "bank out of range"},
		{"REF open bank", 1, Command{Kind: KindREF}, "refresh with bank 0 open"},
		{"COMP closed bank", 1, Command{Kind: KindCOMP}, fmt.Sprintf("COMP with bank %d closed", closed)},
		{"COMP column range", all, Command{Kind: KindCOMP, Col: g.Cols}, fmt.Sprintf("dram: column %d out of range [0,%d)", g.Cols, g.Cols)},
		{"RD closed bank", 1, Command{Kind: KindRD, Bank: closed}, "dram: read from bank with no open row"},
		{"COPY_GBBK closed bank", 1, Command{Kind: KindCOPYGBBK, Bank: closed}, "dram: write to bank with no open row"},
		{"COLRD column range", 1, Command{Kind: KindCOLRD, Col: -1}, fmt.Sprintf("dram: column -1 out of range [0,%d)", g.Cols)},
		{"COPY_BKGB bank range", all, Command{Kind: KindCOPYBKGB, Bank: g.Banks}, "bank out of range"},
		{"WR payload", 1, Command{Kind: KindWR, Data: make([]byte, cb-1)}, fmt.Sprintf("dram: write data is %d bytes, column I/O is %d", cb-1, cb)},
		{"WR_BIAS payload", 0, Command{Kind: KindWRBIAS, Data: make([]byte, 3)}, fmt.Sprintf("WR_BIAS data is 3 bytes, want 2 per bank (%d)", 2*g.Banks)},
		{"RD_AF selector", 0, Command{Kind: KindRDAF, AF: AFCount}, fmt.Sprintf("RD_AF selector %d out of range [0,%d)", AFCount, AFCount)},
		{"unknown kind", 0, Command{Kind: KindInvalid}, "unknown command kind"},
	}
	probes := []Command{
		{Kind: KindACT, Bank: g.Banks - 1}, {Kind: KindPRE}, {Kind: KindPREA},
		{Kind: KindRD}, {Kind: KindWR}, {Kind: KindREF}, {Kind: KindGWRITE},
		{Kind: KindGACT, Cluster: all - 1}, {Kind: KindCOMP}, {Kind: KindCOMPBank},
		{Kind: KindBCAST}, {Kind: KindCOLRD}, {Kind: KindMAC}, {Kind: KindREADRES},
		{Kind: KindWRBIAS}, {Kind: KindRDAF}, {Kind: KindEWMUL}, {Kind: KindEWADD},
		{Kind: KindCOPYBKGB}, {Kind: KindCOPYGBBK},
	}
	snapshot := func(ch *Channel) (Stats, []int64) {
		var state []int64
		for _, p := range probes {
			state = append(state, ch.EarliestIssue(p, 0))
		}
		for b := 0; b < g.Banks; b++ {
			state = append(state, int64(ch.Bank(b).OpenRow()))
		}
		return ch.Stats(), state
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			ch := newTestChannel(t)
			var at int64
			for cl := 0; cl < tc.open; cl++ {
				at = mustIssue(t, ch, Command{Kind: KindGACT, Cluster: cl, Row: 1}, at)
			}
			stats, state := snapshot(ch)
			cmd := tc.cmd
			_, _, err := ch.IssueTimed(&cmd, at)
			var derr *Error
			if !errors.As(err, &derr) || derr.Reason != tc.reason {
				t.Fatalf("error %v, want reason %q", err, tc.reason)
			}
			if s, st := snapshot(ch); s != stats || !slices.Equal(st, state) {
				t.Errorf("the failed command changed the channel:\nstats %+v\nwant  %+v\nstate %v\nwant  %v", s, stats, st, state)
			}
		})
	}
}
