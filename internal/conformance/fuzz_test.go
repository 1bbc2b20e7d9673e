package conformance_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"newton/internal/aim"
	"newton/internal/bf16"
	"newton/internal/conformance"
	"newton/internal/dram"
	"newton/internal/host"
	"newton/internal/layout"
	"newton/internal/traceio"
)

// byteSource turns a fuzz input into a stream of small decisions.
type byteSource struct {
	data []byte
	i    int
}

func (s *byteSource) next() byte {
	if s.i >= len(s.data) {
		return 0
	}
	b := s.data[s.i]
	s.i++
	return b
}

func (s *byteSource) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(s.next()) % n
}

func (s *byteSource) exhausted() bool { return s.i >= len(s.data) }

// genState is the generator's own book-keeping of the datapath protocol
// (the engine does not expose its pending registers).
type genState struct {
	gbuf      []bool
	haveInput bool
	filter    []bool
}

// generate drives channel 0 of a controller with a random-but-well-formed
// command schedule derived from src, through the host's issuer
// (WaitChannel, then IssueCommand): every emitted command is
// protocol-legal and issued at the engine's earliest legal cycle (plus
// occasional slack). It returns the issued trace. report is called on
// any divergence between the engine's earliest-issue and the checker's,
// or between the cycle generated and the cycle the issuer chose.
func generate(cfg dram.Config, latches int, ctrl *host.Controller, c *conformance.Checker,
	src *byteSource, report func(format string, args ...any)) []traceio.TimedCommand {
	g := cfg.Geometry
	e := ctrl.Engine(0)
	st := genState{gbuf: make([]bool, g.Cols), filter: make([]bool, g.Banks)}
	open := func(b int) bool { return e.Channel().Bank(b).State() == dram.BankActive }
	anyOpen := func() (int, bool) {
		start := src.intn(g.Banks)
		for i := 0; i < g.Banks; i++ {
			b := (start + i) % g.Banks
			if open(b) {
				return b, true
			}
		}
		return 0, false
	}
	anyIdle := func() (int, bool) {
		start := src.intn(g.Banks)
		for i := 0; i < g.Banks; i++ {
			b := (start + i) % g.Banks
			if !open(b) {
				return b, true
			}
		}
		return 0, false
	}
	idleCluster := func() (int, bool) {
		start := src.intn(g.Clusters())
		for i := 0; i < g.Clusters(); i++ {
			cl := (start + i) % g.Clusters()
			ok := true
			for b := cl * g.BanksPerCluster; b < (cl+1)*g.BanksPerCluster; b++ {
				if open(b) {
					ok = false
					break
				}
			}
			if ok {
				return cl, true
			}
		}
		return 0, false
	}
	allOpen := func() bool {
		for b := 0; b < g.Banks; b++ {
			if !open(b) {
				return false
			}
		}
		return true
	}
	allIdle := func() bool {
		for b := 0; b < g.Banks; b++ {
			if open(b) {
				return false
			}
		}
		return true
	}
	anyGbuf := func() (int, bool) {
		start := src.intn(g.Cols)
		for i := 0; i < g.Cols; i++ {
			col := (start + i) % g.Cols
			if st.gbuf[col] {
				return col, true
			}
		}
		return 0, false
	}
	allFilter := func() bool {
		for _, ok := range st.filter {
			if !ok {
				return false
			}
		}
		return true
	}
	anyFilter := func() (int, bool) {
		start := src.intn(g.Banks)
		for i := 0; i < g.Banks; i++ {
			b := (start + i) % g.Banks
			if st.filter[b] {
				return b, true
			}
		}
		return 0, false
	}
	payload := func() []byte {
		data := make([]byte, g.ColBytes())
		seed := src.next()
		for i := range data {
			data[i] = seed + byte(i)
		}
		return data
	}

	var trace []traceio.TimedCommand
	var now int64
	for !src.exhausted() && len(trace) < 512 {
		var cmd dram.Command
		switch src.intn(20) {
		case 0: // ACT
			b, ok := anyIdle()
			if !ok {
				continue
			}
			cmd = dram.Command{Kind: dram.KindACT, Bank: b, Row: src.intn(g.Rows)}
		case 1: // G_ACT
			cl, ok := idleCluster()
			if !ok {
				continue
			}
			cmd = dram.Command{Kind: dram.KindGACT, Cluster: cl, Row: src.intn(g.Rows)}
		case 2: // PRE (legal even on an idle bank)
			cmd = dram.Command{Kind: dram.KindPRE, Bank: src.intn(g.Banks)}
		case 3: // PREA
			cmd = dram.Command{Kind: dram.KindPREA}
		case 4: // REF
			if !allIdle() {
				continue
			}
			cmd = dram.Command{Kind: dram.KindREF}
		case 5: // RD
			b, ok := anyOpen()
			if !ok {
				continue
			}
			cmd = dram.Command{Kind: dram.KindRD, Bank: b, Col: src.intn(g.Cols)}
		case 6: // WR
			b, ok := anyOpen()
			if !ok {
				continue
			}
			cmd = dram.Command{Kind: dram.KindWR, Bank: b, Col: src.intn(g.Cols), Data: payload()}
		case 7: // GWRITE
			col := src.intn(g.Cols)
			cmd = dram.Command{Kind: dram.KindGWRITE, Col: col, Data: payload()}
			st.gbuf[col] = true
		case 8: // BCAST
			col, ok := anyGbuf()
			if !ok {
				continue
			}
			cmd = dram.Command{Kind: dram.KindBCAST, Col: col}
			st.haveInput = true
		case 9: // COLRD, per-bank or ganged
			if src.next()%2 == 0 && allOpen() {
				cmd = dram.Command{Kind: dram.KindCOLRD, Bank: aim.AllBanks, Col: src.intn(g.Cols)}
				for b := range st.filter {
					st.filter[b] = true
				}
			} else {
				b, ok := anyOpen()
				if !ok {
					continue
				}
				cmd = dram.Command{Kind: dram.KindCOLRD, Bank: b, Col: src.intn(g.Cols)}
				st.filter[b] = true
			}
		case 10: // MAC, per-bank or ganged
			if !st.haveInput {
				continue
			}
			if src.next()%2 == 0 && allFilter() {
				cmd = dram.Command{Kind: dram.KindMAC, Bank: aim.AllBanks, Latch: src.intn(latches)}
			} else {
				b, ok := anyFilter()
				if !ok {
					continue
				}
				cmd = dram.Command{Kind: dram.KindMAC, Bank: b, Latch: src.intn(latches)}
			}
		case 11: // COMP
			col, ok := anyGbuf()
			if !ok || !allOpen() {
				continue
			}
			cmd = dram.Command{Kind: dram.KindCOMP, Col: col, Latch: src.intn(latches)}
		case 12: // COMP_BK
			col, ok := anyGbuf()
			if !ok {
				continue
			}
			b, okb := anyOpen()
			if !okb {
				continue
			}
			cmd = dram.Command{Kind: dram.KindCOMPBank, Bank: b, Col: col, Latch: src.intn(latches)}
		case 13: // READRES
			cmd = dram.Command{Kind: dram.KindREADRES, Latch: src.intn(latches)}
		case 14: // WR_BIAS
			data := make([]byte, 2*g.Banks)
			seed := src.next()
			for i := range data {
				data[i] = seed + byte(i)
			}
			cmd = dram.Command{Kind: dram.KindWRBIAS, Latch: src.intn(latches), Data: data}
		case 15: // RD_AF
			cmd = dram.Command{Kind: dram.KindRDAF, Latch: src.intn(latches),
				AF: src.intn(dram.AFCount)}
		case 16: // EWMUL
			dst, ok := anyGbuf()
			if !ok {
				continue
			}
			s, ok := anyGbuf()
			if !ok {
				continue
			}
			cmd = dram.Command{Kind: dram.KindEWMUL, Col: dst, Slot: s}
		case 17: // EWADD
			dst, ok := anyGbuf()
			if !ok {
				continue
			}
			s, ok := anyGbuf()
			if !ok {
				continue
			}
			cmd = dram.Command{Kind: dram.KindEWADD, Col: dst, Slot: s}
		case 18: // COPY_BKGB
			b, ok := anyOpen()
			if !ok {
				continue
			}
			slot := src.intn(g.Cols)
			cmd = dram.Command{Kind: dram.KindCOPYBKGB, Bank: b, Col: src.intn(g.Cols), Slot: slot}
			st.gbuf[slot] = true
		case 19: // COPY_GBBK
			b, ok := anyOpen()
			if !ok {
				continue
			}
			slot, ok := anyGbuf()
			if !ok {
				continue
			}
			cmd = dram.Command{Kind: dram.KindCOPYGBBK, Bank: b, Col: src.intn(g.Cols), Slot: slot}
		}

		// Both sides must agree on the earliest legal cycle: the engine's
		// is derived from the live channel, the checker's from its own
		// shadow state.
		at := e.EarliestIssue(cmd, now)
		if legal := c.EarliestLegal(cmd, now); legal != at {
			report("earliest-issue divergence for %v from cycle %d: engine %d, checker %d",
				cmd, now, at, legal)
			return trace
		}
		if src.next()%4 == 0 {
			at += int64(src.intn(5)) // idle gaps diversify window states
		}
		ctrl.WaitChannel(0, at)
		if _, issued, err := ctrl.IssueCommand(0, cmd); err != nil || issued != at {
			report("issuer took generated command %v for cycle %d at %d: %v", cmd, at, issued, err)
			return trace
		}
		now = at
		trace = append(trace, traceio.TimedCommand{Cycle: at, Cmd: cmd})
	}
	return trace
}

// fuzzOptions disables the refresh-cadence rule: the generator issues
// REF on protocol legality, not on a host policy's schedule.
func fuzzOptions(latches int) conformance.Options {
	return conformance.Options{Latches: latches, RefreshSlack: -1}
}

// replayController returns a fresh one-channel controller with the
// given result latches per bank, the controller newton replay builds.
func replayController(cfg dram.Config, latches int) (*host.Controller, error) {
	return host.NewController(cfg, host.Options{LatchesPerBank: latches})
}

// runConformance executes one generator round and the mutation round;
// report receives any divergence between checker and simulator.
func runConformance(data []byte, report func(format string, args ...any)) {
	cfg := tinyConfig()
	src := &byteSource{data: data}
	latches := 1 + src.intn(2)

	ctrl, err := replayController(cfg, latches)
	if err != nil {
		report("NewController: %v", err)
		return
	}
	c, err := conformance.New(cfg, fuzzOptions(latches))
	if err != nil {
		report("conformance.New: %v", err)
		return
	}
	ctrl.Engine(0).SetObserver(c)

	trace := generate(cfg, latches, ctrl, c, src, report)

	// Direction 1: the checker accepts everything the scheduler emitted.
	if vs := c.Violations(); len(vs) > 0 {
		report("checker flagged a legal schedule (%d commands): %v", len(trace), vs[0])
		return
	}
	if len(trace) < 2 {
		return
	}

	// Direction 2: mutate the schedule (pull one command earlier) and
	// require checker and simulator to agree on its legality.
	mutated := make([]traceio.TimedCommand, len(trace))
	copy(mutated, trace)
	idx := src.intn(len(mutated))
	delta := int64(1 + src.intn(16))
	mutated[idx].Cycle -= delta
	if mutated[idx].Cycle < 0 {
		mutated[idx].Cycle = 0
	}
	sort.SliceStable(mutated, func(i, j int) bool { return mutated[i].Cycle < mutated[j].Cycle })

	vs, err := conformance.CheckTrace(cfg, fuzzOptions(latches), mutated)
	if err != nil {
		report("CheckTrace: %v", err)
		return
	}
	ctrl2, err := replayController(cfg, latches)
	if err != nil {
		report("NewController: %v", err)
		return
	}
	_, _, replayErr := traceio.Replay(ctrl2, mutated, true)
	if (len(vs) == 0) != (replayErr == nil) {
		report("checker/simulator disagree on mutated schedule (idx %d, delta %d): checker violations %v, replay error %v",
			idx, delta, vs, replayErr)
	}
}

// FuzzConformance generates random-but-well-formed command schedules,
// issued through the host's issuer, and asserts the two equivalence
// directions: the checker accepts whatever a legal scheduler emits, and
// checker and simulator agree on the legality of mutated schedules.
func FuzzConformance(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add(bytes.Repeat([]byte{0, 7, 1, 11, 13}, 12)) // ACT/GWRITE/GACT/COMP/READRES heavy
	f.Add(bytes.Repeat([]byte{7, 8, 1, 9, 10, 3}, 10))
	f.Add(bytes.Repeat([]byte{0, 2, 4}, 20)) // ACT/PRE/REF churn
	f.Fuzz(func(t *testing.T, data []byte) {
		runConformance(data, func(format string, args ...any) {
			t.Errorf(format, args...)
		})
	})
}

// TestConformanceEquivalenceDeterministic runs the fuzz body over fixed
// pseudo-random inputs so the equivalence properties are exercised on
// every `go test`, not only under `go test -fuzz`.
func TestConformanceEquivalenceDeterministic(t *testing.T) {
	for seed := 0; seed < 64; seed++ {
		data := make([]byte, 256)
		x := uint32(seed)*2654435761 + 1
		for i := range data {
			// xorshift32: cheap deterministic stream per seed.
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			data[i] = byte(x)
		}
		runConformance(data, func(format string, args ...any) {
			t.Errorf("seed %d: %s", seed, fmt.Sprintf(format, args...))
		})
	}
}

// captureTrace runs a small verified product on a 1-channel controller
// and returns channel 0's command stream rendered in the traceio format:
// a real scheduler-emitted trace for corpus seeding.
func captureTrace(tb testing.TB, opts host.Options) []byte {
	cfg := dram.Config{Geometry: dram.HBM2EGeometry(1), Timing: dram.AiMTiming()}
	ctrl, err := host.NewController(cfg, opts)
	if err != nil {
		tb.Fatal(err)
	}
	var trace []traceio.TimedCommand
	ctrl.Trace = func(ch int, cmd dram.Command, cycle int64, res aim.Result) {
		if ch == 0 {
			trace = append(trace, traceio.TimedCommand{Cycle: cycle, Cmd: cmd})
		}
	}
	m := layout.RandomMatrix(32, 64, 3)
	p, err := ctrl.Place(m)
	if err != nil {
		tb.Fatal(err)
	}
	v := bf16.Vector(layout.RandomMatrix(64, 1, 4).Data)
	if _, err := ctrl.RunMVM(p, v); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := traceio.Write(&buf, trace); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// checkTextTrace is the FuzzTrace body: parse a textual trace and assert
// the soundness direction on the paper's configuration — a trace the
// checker passes as clean must replay through the simulator's own
// checker without violation.
func checkTextTrace(data []byte, report func(format string, args ...any)) {
	trace, err := traceio.Parse(bytes.NewReader(data))
	if err != nil || len(trace) == 0 {
		return // not a well-formed trace; nothing to assert
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].Cycle < trace[i-1].Cycle {
			return // replay requires sorted traces; the checker does not
		}
	}
	cfg := dram.Config{Geometry: dram.HBM2EGeometry(1), Timing: dram.AiMTiming()}
	const latches = 4 // accept quad-latch traces too
	vs, err := conformance.CheckTrace(cfg, fuzzOptions(latches), trace)
	if err != nil {
		report("CheckTrace: %v", err)
		return
	}
	if len(vs) > 0 {
		return // checker rejected it; nothing further to assert
	}
	ctrl, err := replayController(cfg, latches)
	if err != nil {
		report("NewController: %v", err)
		return
	}
	if _, _, err := traceio.Replay(ctrl, trace, true); err != nil {
		report("checker passed a trace the simulator rejects: %v", err)
	}
}

// FuzzTrace feeds textual traces (seeded from real captured command
// streams, see testdata/fuzz/FuzzTrace) through the checker and asserts
// that whatever it passes as clean also replays cleanly.
func FuzzTrace(f *testing.F) {
	f.Add(captureTrace(f, host.Newton()))
	f.Add(captureTrace(f, host.NonOpt()))
	f.Add([]byte("0 ACT bank=0 row=0\n14 RD bank=0 col=0\n"))
	f.Add([]byte("# comment\n0 GWRITE col=0 data=" +
		"0000000000000000000000000000000000000000000000000000000000000000\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTextTrace(data, func(format string, args ...any) {
			t.Errorf(format, args...)
		})
	})
}

// TestWriteCorpus regenerates the checked-in seed corpora under
// testdata/fuzz from real scheduler traces. Skipped in normal runs; set
// NEWTON_WRITE_CORPUS=1 to refresh after a scheduler change.
func TestWriteCorpus(t *testing.T) {
	if os.Getenv("NEWTON_WRITE_CORPUS") == "" {
		t.Skip("set NEWTON_WRITE_CORPUS=1 to regenerate the seed corpora")
	}
	noReuse := host.NoReuse()
	seeds := map[string][]byte{
		"newton":   captureTrace(t, host.Newton()),
		"non-opt":  captureTrace(t, host.NonOpt()),
		"no-reuse": captureTrace(t, noReuse),
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzTrace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
