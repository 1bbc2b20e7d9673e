package traceio

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"newton/internal/aim"
	"newton/internal/bf16"
	"newton/internal/dram"
	"newton/internal/host"
	"newton/internal/layout"
)

func traceConfig() dram.Config {
	g := dram.HBM2EGeometry(1)
	g.Rows = 128
	return dram.Config{Geometry: g, Timing: dram.AiMTiming()}
}

// replayController returns a fresh one-channel controller on
// traceConfig with the given result latches per bank, as newton replay
// builds one.
func replayController(t *testing.T, latches int) *host.Controller {
	t.Helper()
	c, err := host.NewController(traceConfig(), host.Options{LatchesPerBank: latches})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// captureRun records a single-channel Newton MVM as a trace.
func captureRun(t *testing.T, opts host.Options) ([]TimedCommand, []float32, *layout.Matrix) {
	t.Helper()
	c, err := host.NewController(traceConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var trace []TimedCommand
	c.Trace = func(ch int, cmd dram.Command, cycle int64, res aim.Result) {
		// Data payloads are aliased by the controller; copy them.
		cp := cmd
		if cmd.Data != nil {
			cp.Data = append([]byte(nil), cmd.Data...)
		}
		trace = append(trace, TimedCommand{Cycle: cycle, Cmd: cp})
	}
	m := layout.RandomMatrix(48, 700, 81)
	p, err := c.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	v := bf16.Vector(layout.RandomMatrix(700, 1, 82).Data)
	res, err := c.RunMVM(p, v)
	if err != nil {
		t.Fatal(err)
	}
	return trace, res.Output, m
}

func TestWriteParseRoundTrip(t *testing.T) {
	trace, _, _ := captureRun(t, host.Newton())
	var buf bytes.Buffer
	if err := Write(&buf, trace); err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(trace) {
		t.Fatalf("parsed %d entries, wrote %d", len(parsed), len(trace))
	}
	for i := range trace {
		if parsed[i].Cycle != trace[i].Cycle || parsed[i].Cmd.Kind != trace[i].Cmd.Kind ||
			parsed[i].Cmd.Bank != trace[i].Cmd.Bank || parsed[i].Cmd.Row != trace[i].Cmd.Row ||
			parsed[i].Cmd.Col != trace[i].Cmd.Col || parsed[i].Cmd.Cluster != trace[i].Cmd.Cluster ||
			parsed[i].Cmd.Latch != trace[i].Cmd.Latch ||
			!bytes.Equal(parsed[i].Cmd.Data, trace[i].Cmd.Data) {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, parsed[i], trace[i])
		}
	}
}

func TestReplayReproducesRun(t *testing.T) {
	for _, opts := range []host.Options{host.Newton(), host.NoReuse(), host.QuadLatch()} {
		trace, output, m := captureRun(t, opts)
		// Replay into a fresh controller whose banks hold the same matrix.
		c := replayController(t, opts.Latches())
		p, err := layout.NewPlacementAt(traceConfig().Geometry, opts.LayoutKind(), m, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.LoadChannel(0, c.Engine(0).Channel()); err != nil {
			t.Fatal(err)
		}
		rep, shifted, err := Replay(c, trace, true)
		if err != nil {
			t.Fatalf("%+v: strict replay failed: %v", opts.LayoutKind(), err)
		}
		if shifted != 0 {
			t.Errorf("strict replay shifted %d commands", shifted)
		}
		if rep.Commands != len(trace) {
			t.Errorf("replayed %d of %d", rep.Commands, len(trace))
		}
		// The replayed READRES stream must reproduce the run's outputs:
		// every output element appears among the result reads.
		got := map[float32]bool{}
		for _, rr := range rep.Results {
			for _, v := range rr {
				got[v] = true
			}
		}
		missing := 0
		for i, want := range output {
			// Interleaved runs accumulate partials on the host, so check
			// only single-chunk-exact values; row-major outputs appear
			// verbatim.
			if p.NumChunks() == 1 || p.Kind() == layout.RowMajor {
				if !got[want] {
					missing++
					if missing < 3 {
						t.Errorf("output %d (%v) not in replayed results", i, want)
					}
				}
			}
		}
	}
}

func TestReplayStrictCatchesViolations(t *testing.T) {
	// An ACT at 0 and a read one cycle later violates tRCD.
	trace := []TimedCommand{
		{Cycle: 0, Cmd: dram.Command{Kind: dram.KindACT, Bank: 0, Row: 1}},
		{Cycle: 1, Cmd: dram.Command{Kind: dram.KindRD, Bank: 0, Col: 0}},
	}
	_, _, err := Replay(replayController(t, 1), trace, true)
	if err == nil {
		t.Fatal("strict replay accepted a tRCD violation")
	}
	// The error names the earliest legal cycle, tRCD after the ACT.
	if want := fmt.Sprintf("earliest legal cycle %d", traceConfig().Timing.TRCD); !strings.Contains(err.Error(), want) {
		t.Errorf("strict error %q does not name %q", err, want)
	}
	// Lenient replay re-schedules it.
	rep, shifted, err := Replay(replayController(t, 1), trace, false)
	if err != nil {
		t.Fatal(err)
	}
	if shifted != 1 {
		t.Errorf("shifted = %d, want 1", shifted)
	}
	if rep.LastCycle != traceConfig().Timing.TRCD {
		t.Errorf("read re-scheduled to %d, want %d", rep.LastCycle, traceConfig().Timing.TRCD)
	}
}

func TestReplayRejectsUnsortedTrace(t *testing.T) {
	trace := []TimedCommand{
		{Cycle: 10, Cmd: dram.Command{Kind: dram.KindACT, Bank: 0, Row: 0}},
		{Cycle: 5, Cmd: dram.Command{Kind: dram.KindACT, Bank: 1, Row: 0}},
	}
	if _, _, err := Replay(replayController(t, 1), trace, false); err == nil {
		t.Fatal("unsorted trace accepted")
	}
}

// cycleRecorder records the issue cycle of every command it observes.
type cycleRecorder []int64

func (r *cycleRecorder) Observe(_ dram.Command, cycle int64) { *r = append(*r, cycle) }

// TestReplayKeepsTraceOrder holds lenient replay to the in-order issue
// every other path keeps: a command shifted past its recorded cycle
// delays the commands after it, so the replayed stream stays sorted.
// The second ACT waits tRRD, and the GWRITE recorded at cycle 2 then
// issues with it, not before it.
func TestReplayKeepsTraceOrder(t *testing.T) {
	trace := []TimedCommand{
		{Cycle: 0, Cmd: dram.Command{Kind: dram.KindACT, Bank: 0}},
		{Cycle: 1, Cmd: dram.Command{Kind: dram.KindACT, Bank: 1}},
		{Cycle: 2, Cmd: dram.Command{Kind: dram.KindGWRITE, Data: make([]byte, traceConfig().Geometry.ColBytes())}},
	}
	c := replayController(t, 1)
	var issued cycleRecorder
	c.Engine(0).SetObserver(&issued)
	_, shifted, err := Replay(c, trace, false)
	if err != nil {
		t.Fatal(err)
	}
	trrd := traceConfig().Timing.TRRD
	if want := []int64{0, trrd, trrd}; !slices.Equal(issued, want) || shifted != 2 {
		t.Errorf("issued at %v with %d shifts, want %v with 2", issued, shifted, want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"nonsense",
		"x ACT bank=0 row=0",
		"5 BOGUS",
		"5 ACT bank=zero row=0",
		"5 ACT bank0",
		"5 WR bank=0 col=0 data=zz",
		"5 ACT banana=1",
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("malformed line %q accepted", c)
		}
	}
	// Comments and blanks are fine.
	ok := "# a comment\n\n3 REF\n"
	trace, err := Parse(strings.NewReader(ok))
	if err != nil || len(trace) != 1 || trace[0].Cmd.Kind != dram.KindREF {
		t.Errorf("comment handling broken: %v %v", trace, err)
	}
}
