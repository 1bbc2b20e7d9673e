package host

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"newton/internal/bf16"
	"newton/internal/dram"
	"newton/internal/layout"
)

// fuzzSource turns a fuzz input into a stream of small decisions,
// mirroring the conformance fuzzer's generator idiom.
type fuzzSource struct {
	data []byte
	i    int
}

func (s *fuzzSource) next() byte {
	if s.i >= len(s.data) {
		return 0
	}
	b := s.data[s.i]
	s.i++
	return b
}

func (s *fuzzSource) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(s.next()) % n
}

// fuzzSession is one randomized multi-run session decoded from fuzz
// bytes: a matrix shape, an option ladder rung, and a scripted sequence
// of runs with input changes, latch preloads, host advances and
// stored-bit mutations between them.
type fuzzSession struct {
	rows, cols int
	opts       Options
	steps      []fuzzStep
}

type fuzzStep struct {
	inputSeed int64 // which input vector this run uses
	tweakLane int   // -1, or an element of the input to salt with NaN
	bias      byte  // 0 = none, else WR_BIAS fill byte before the run
	biasLatch int
	advance   int64 // host cycles to Advance after the run
	mutate    int   // -1, or a bank whose base row gets a bit flipped
}

// decodeFuzzSession derives a well-formed session from raw fuzz bytes.
// Every byte consumed steers one decision, so the fuzzer's mutations
// explore schedule shapes rather than tripping input validation.
func decodeFuzzSession(data []byte) fuzzSession {
	src := &fuzzSource{data: data}
	ladder := []Options{Newton(), NonOpt(), NoReuse(), QuadLatch()}
	s := fuzzSession{
		rows: 1 + src.intn(64),
		cols: 1 + src.intn(384),
		opts: ladder[src.intn(len(ladder))],
	}
	if src.next()%2 == 0 {
		s.opts.OverlapBufferLoad = !s.opts.OverlapBufferLoad
	}
	runs := 1 + src.intn(4)
	for r := 0; r < runs; r++ {
		st := fuzzStep{
			inputSeed: int64(1 + src.intn(3)), // small pool: inputs repeat
			tweakLane: -1,
			mutate:    -1,
		}
		if src.next()%4 == 0 {
			st.tweakLane = src.intn(s.cols)
		}
		if src.next()%4 == 0 {
			st.bias = 1 + src.next()
			st.biasLatch = src.intn(s.opts.Latches())
		}
		if a := src.next(); a%3 == 0 {
			st.advance = int64(a) * 997 // reaches past tREFI at the high end
		}
		if src.next()%5 == 0 {
			st.mutate = src.intn(16)
		}
		s.steps = append(s.steps, st)
	}
	return s
}

// driveFuzzSession replays one decoded session against a controller and
// returns every run's result plus the final clock and stats.
func driveFuzzSession(t *testing.T, s fuzzSession, opts Options) ([]*Result, int64, dram.Stats, *Controller) {
	t.Helper()
	cfg := testCfg()
	c, err := NewController(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := layout.RandomMatrix(s.rows, s.cols, 7)
	p, err := c.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	var results []*Result
	for _, st := range s.steps {
		if st.bias != 0 {
			banks := cfg.Geometry.Banks
			bias := make([]byte, 2*banks)
			for b := 0; b < banks; b++ {
				binary.LittleEndian.PutUint16(bias[2*b:], uint16(bf16.FromFloat32(float32(st.bias)/64-2)))
			}
			for ch := 0; ch < c.Channels(); ch++ {
				// Catch up any refresh backlog first, as the ISR frontend's
				// row-open boundaries do; a bare WR_BIAS after a long host
				// advance would violate tREFI on any core.
				if err := c.CatchUpRefresh(ch, 0); err != nil {
					t.Fatal(err)
				}
				if _, _, err := c.IssueCommand(ch, dram.Command{Kind: dram.KindWRBIAS, Latch: st.biasLatch, Data: bias}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if st.mutate >= 0 {
			bank := c.Engine(st.mutate % c.Channels()).Channel().Bank(st.mutate % cfg.Geometry.Banks)
			if err := bank.MutateRow(p.BaseRow(), func(data []byte) {
				data[0] ^= 0x40
			}); err != nil {
				t.Fatal(err)
			}
		}
		v := randomVector(s.cols, st.inputSeed)
		if st.tweakLane >= 0 {
			v[st.tweakLane] = bf16.FromBits(0xFFA5) // signaling-payload NaN
		}
		res, err := c.RunMVM(p, v)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		if st.advance > 0 {
			c.Advance(st.advance)
		}
	}
	return results, c.Now(), c.Stats(), c
}

// assertVerifiedAlike requires both cores' independently checked
// command streams to be violation-free and equally long.
func assertVerifiedAlike(t *testing.T, ec, oc *Controller) {
	t.Helper()
	for _, side := range []struct {
		name string
		c    *Controller
	}{{"event", ec}, {"oracle", oc}} {
		suite := side.c.Conformance()
		if suite == nil {
			t.Fatalf("%s controller has no conformance suite attached", side.name)
		}
		if vs := suite.Violations(); len(vs) > 0 {
			t.Fatalf("conformance violations in %s run: %v", side.name, vs[0])
		}
	}
	if e, o := ec.Conformance().Commands(), oc.Conformance().Commands(); e != o {
		t.Fatalf("checker saw %d commands event, %d oracle", e, o)
	}
}

// FuzzEventCore feeds random legal multi-run sessions through both
// simulator cores and asserts the event core is indistinguishable from
// the issuer's reference mode: bit-identical outputs, cycle accounting,
// dram.Stats and final clocks, with both cores' command streams
// independently checked — zero conformance violations on either side
// and the same number of commands checked.
func FuzzEventCore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add(bytes.Repeat([]byte{0, 7, 1, 11, 13}, 12))
	f.Add(bytes.Repeat([]byte{3, 64, 2, 0, 0, 4, 0, 9}, 8))  // quad-latch, repeated inputs
	f.Add(bytes.Repeat([]byte{2, 255, 1, 1, 3, 0, 2, 5}, 8)) // no-reuse
	f.Add(bytes.Repeat([]byte{1, 17, 3, 3, 0, 0, 0, 0, 60}, 6))
	// Four identical plain runs: the warm steady state.
	f.Add(append([]byte{31, 99, 0, 1, 3}, bytes.Repeat([]byte{0, 1, 1, 1, 1, 1}, 5)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeFuzzSession(data)
		ev := s.opts
		ev.Parallel = ParallelOff
		ev.Verify = true
		or := ev
		or.Oracle = true
		eres, enow, estats, ec := driveFuzzSession(t, s, ev)
		ores, onow, ostats, oc := driveFuzzSession(t, s, or)
		assertVerifiedAlike(t, ec, oc)
		for i := range ores {
			e, o := eres[i], ores[i]
			if len(e.Output) != len(o.Output) {
				t.Fatalf("run %d: output lengths %d event, %d oracle", i, len(e.Output), len(o.Output))
			}
			for j := range o.Output {
				if math.Float32bits(e.Output[j]) != math.Float32bits(o.Output[j]) {
					t.Fatalf("run %d: output[%d] = %x event, %x oracle (session %+v)",
						i, j, math.Float32bits(e.Output[j]), math.Float32bits(o.Output[j]), s)
				}
			}
			if e.Cycles != o.Cycles || e.StartCycle != o.StartCycle || e.EndCycle != o.EndCycle {
				t.Fatalf("run %d: cycles %d/%d/%d event vs %d/%d/%d oracle (session %+v)",
					i, e.StartCycle, e.EndCycle, e.Cycles, o.StartCycle, o.EndCycle, o.Cycles, s)
			}
			for ch := range o.PerChannelCycles {
				if e.PerChannelCycles[ch] != o.PerChannelCycles[ch] {
					t.Fatalf("run %d: channel %d cycles %d event, %d oracle", i, ch,
						e.PerChannelCycles[ch], o.PerChannelCycles[ch])
				}
			}
			if e.Stats != o.Stats {
				t.Fatalf("run %d: stats differ:\nevent:  %+v\noracle: %+v", i, e.Stats, o.Stats)
			}
		}
		if enow != onow {
			t.Fatalf("final clock %d event, %d oracle (session %+v)", enow, onow, s)
		}
		if estats != ostats {
			t.Fatalf("cumulative stats differ:\nevent:  %+v\noracle: %+v", estats, ostats)
		}
	})
}
