package isr_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"newton/internal/dram"
	"newton/internal/host"
	"newton/internal/isr"
)

// FuzzISR drives byte-directed program generation against four
// properties at once:
//
//  1. the text codec is the identity: Encode then Parse reproduces the
//     program exactly;
//  2. generated programs — which maintain the documented hazard rules
//     by construction — pass the static checker;
//  3. checker-clean programs replay clean: Frontend.Run completes with
//     zero conformance violations on a Verify-enabled controller;
//  4. the replay does not depend on the channel fan-out: the same
//     program on a ParallelOff controller reports the same Report and
//     dram.Stats as on the default worker pool.
//
// Property 3 is the load-bearing one: it pins CheckProgram's shadow
// model (bank open/close, buffer-slot validity, GPR liveness) to what
// the engine and conformance checker actually enforce, so the static
// check can be trusted as a pre-flight gate for replayed programs.

// fuzzSource doles out generator decisions from the fuzz input.
type fuzzSource struct {
	data []byte
	i    int
}

func (s *fuzzSource) exhausted() bool { return s.i >= len(s.data) }

func (s *fuzzSource) next() byte {
	if s.exhausted() {
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

// fuzzGen builds an always-valid program, shadowing the same state the
// checker tracks.
type fuzzGen struct {
	src     *fuzzSource
	geo     dram.Geometry
	latches int
	open    []bool   // per channel: all banks open (whole-row schedule)
	gb      [][]bool // per channel, per slot: buffer slot written
	p       isr.Program
}

// stagedGPRs is the contiguous always-written prefix of the register
// file the generator stages inputs in; results land above it.
const stagedGPRs = 8

func (g *fuzzGen) emit(in isr.Instr) { g.p.Instrs = append(g.p.Instrs, in) }

func (g *fuzzGen) lanesImm() []float32 {
	v := make([]float32, g.geo.ColBits/16)
	for i := range v {
		v[i] = float32(int(g.src.next())-128) / 16
	}
	return v
}

func (g *fuzzGen) banksImm() []float32 {
	v := make([]float32, g.geo.Banks)
	for i := range v {
		v[i] = float32(int(g.src.next())-128) / 16
	}
	return v
}

// pick returns a nonzero mask over the candidate channels, or 0 if
// there are none.
func (g *fuzzGen) pick(candidates []int) uint32 {
	if len(candidates) == 0 {
		return 0
	}
	var mask uint32
	for _, ch := range candidates {
		if g.src.intn(2) == 1 {
			mask |= 1 << uint(ch)
		}
	}
	if mask == 0 {
		mask = 1 << uint(candidates[g.src.intn(len(candidates))])
	}
	return mask
}

func (g *fuzzGen) channels(want func(ch int) bool) []int {
	var out []int
	for ch := 0; ch < g.geo.Channels; ch++ {
		if want(ch) {
			out = append(out, ch)
		}
	}
	return out
}

// validPrefix is how many buffer slots from 0 are written on ch.
func (g *fuzzGen) validPrefix(ch int) int {
	n := 0
	for n < len(g.gb[ch]) && g.gb[ch][n] {
		n++
	}
	return n
}

func (g *fuzzGen) step(written []bool) {
	switch g.src.intn(16) {
	case 0: // WR_GPR into the staged prefix
		g.emit(isr.Instr{Op: isr.OpWRGPR, Gpr: g.src.intn(stagedGPRs), Imm: g.lanesImm()})

	case 1: // WR_GB from the staged prefix
		gpr := g.src.intn(stagedGPRs)
		n := 1 + g.src.intn(stagedGPRs-gpr)
		mask := g.pick(g.channels(func(int) bool { return true }))
		g.emit(isr.Instr{Op: isr.OpWRGB, Mask: mask, Gpr: gpr, Count: n})
		for ch := range g.gb {
			if mask&(1<<uint(ch)) != 0 {
				for s := 0; s < n; s++ {
					g.gb[ch][s] = true
				}
			}
		}

	case 2: // ACT on closed channels
		mask := g.pick(g.channels(func(ch int) bool { return !g.open[ch] }))
		if mask == 0 {
			return
		}
		g.emit(isr.Instr{Op: isr.OpACT, Mask: mask, Row: g.src.intn(g.geo.Rows)})
		for ch := range g.open {
			if mask&(1<<uint(ch)) != 0 {
				g.open[ch] = true
			}
		}

	case 3: // PRE on open channels
		mask := g.pick(g.channels(func(ch int) bool { return g.open[ch] }))
		if mask == 0 {
			return
		}
		g.emit(isr.Instr{Op: isr.OpPRE, Mask: mask})
		for ch := range g.open {
			if mask&(1<<uint(ch)) != 0 {
				g.open[ch] = false
			}
		}

	case 4: // MAC over the valid slot prefix of open channels
		cands := g.channels(func(ch int) bool { return g.open[ch] && g.validPrefix(ch) > 0 })
		mask := g.pick(cands)
		if mask == 0 {
			return
		}
		minPrefix := g.geo.Cols
		for _, ch := range cands {
			if mask&(1<<uint(ch)) != 0 {
				if p := g.validPrefix(ch); p < minPrefix {
					minPrefix = p
				}
			}
		}
		if minPrefix > stagedGPRs {
			minPrefix = stagedGPRs // keep tile cost bounded
		}
		g.emit(isr.Instr{Op: isr.OpMAC, Mask: mask,
			Count: 1 + g.src.intn(minPrefix), Latch: g.src.intn(g.latches)})

	case 5: // WR_BIAS
		mask := g.pick(g.channels(func(int) bool { return true }))
		g.emit(isr.Instr{Op: isr.OpWRBIAS, Mask: mask,
			Latch: g.src.intn(g.latches), Imm: g.banksImm()})

	case 6, 7: // RD_MAC / RD_AF into the result region
		ch := g.src.intn(g.geo.Channels)
		gpr := stagedGPRs + g.src.intn(24)
		in := isr.Instr{Op: isr.OpRDMAC, Mask: 1 << uint(ch),
			Gpr: gpr, Latch: g.src.intn(g.latches)}
		if g.src.intn(2) == 1 {
			in.Op = isr.OpRDAF
		} else if written[gpr] && g.src.intn(2) == 1 {
			in.Acc = true
		}
		g.emit(in)
		written[gpr] = true

	case 8: // EWMUL/EWADD over two valid slots
		cands := g.channels(func(ch int) bool { return g.validPrefix(ch) > 0 })
		mask := g.pick(cands)
		if mask == 0 {
			return
		}
		minPrefix := g.geo.Cols
		for _, ch := range cands {
			if mask&(1<<uint(ch)) != 0 {
				if p := g.validPrefix(ch); p < minPrefix {
					minPrefix = p
				}
			}
		}
		op := isr.OpEWADD
		if g.src.intn(2) == 1 {
			op = isr.OpEWMUL
		}
		g.emit(isr.Instr{Op: op, Mask: mask,
			Col: g.src.intn(minPrefix), Slot: g.src.intn(minPrefix)})

	case 9: // COPY_BKGB from an open channel (reads zeros if unwritten)
		cands := g.channels(func(ch int) bool { return g.open[ch] })
		if len(cands) == 0 {
			return
		}
		ch := cands[g.src.intn(len(cands))]
		slot := g.src.intn(g.geo.Cols)
		g.emit(isr.Instr{Op: isr.OpCOPYBKGB, Mask: 1 << uint(ch),
			Bank: g.src.intn(g.geo.Banks), Col: g.src.intn(g.geo.Cols), Slot: slot})
		g.gb[ch][slot] = true

	case 10: // COPY_GBBK of a valid slot into an open channel
		cands := g.channels(func(ch int) bool { return g.open[ch] && g.validPrefix(ch) > 0 })
		if len(cands) == 0 {
			return
		}
		ch := cands[g.src.intn(len(cands))]
		g.emit(isr.Instr{Op: isr.OpCOPYGBBK, Mask: 1 << uint(ch),
			Bank: g.src.intn(g.geo.Banks), Col: g.src.intn(g.geo.Cols),
			Slot: g.src.intn(g.validPrefix(ch))})

	case 11: // WR_ABK into open channels
		mask := g.pick(g.channels(func(ch int) bool { return g.open[ch] }))
		if mask == 0 {
			return
		}
		g.emit(isr.Instr{Op: isr.OpWRABK, Mask: mask,
			Bank: g.src.intn(g.geo.Banks), Col: g.src.intn(g.geo.Cols),
			Gpr: g.src.intn(stagedGPRs)})

	case 12: // CFR: activation selector
		g.emit(isr.Instr{Op: isr.OpCFR, Idx: isr.CFRAF, Val: g.src.intn(dram.AFCount)})

	case 13: // AF or NORM over the staged prefix
		lanes := g.geo.ColBits / 16
		n := 1 + g.src.intn(stagedGPRs*lanes-1)
		if g.src.intn(2) == 1 {
			g.emit(isr.Instr{Op: isr.OpAF, Gpr: 0, Count: n})
		} else {
			// Exposure stays small so ACT-free stretches cannot outrun
			// the refresh-postponement allowance.
			g.emit(isr.Instr{Op: isr.OpNORM, Gpr: 0, Count: n, Exposure: int64(g.src.intn(48))})
		}

	case 14: // RESHAPE staged prefix into the region above the results
		lanes := g.geo.ColBits / 16
		n := 1 + g.src.intn(stagedGPRs*lanes-1)
		n2 := 1 + g.src.intn(4*lanes-1)
		dst := stagedGPRs + 24
		g.emit(isr.Instr{Op: isr.OpRESHAPE, Gpr: 0, Count: n, Gpr2: dst, Count2: n2})
		for i := 0; i < (n2+lanes-1)/lanes; i++ {
			written[dst+i] = true
		}

	case 15: // MARK / SYNC
		if g.src.intn(2) == 1 {
			g.emit(isr.Instr{Op: isr.OpMARK, Idx: g.src.intn(64)})
		} else {
			g.emit(isr.Instr{Op: isr.OpSYNC})
		}
	}
}

func generate(src *fuzzSource, geo dram.Geometry, latches int) *isr.Program {
	g := &fuzzGen{src: src, geo: geo, latches: latches,
		open: make([]bool, geo.Channels), gb: make([][]bool, geo.Channels)}
	for ch := range g.gb {
		g.gb[ch] = make([]bool, geo.Cols)
	}
	written := make([]bool, isr.NumGPRs)
	// The staged prefix is always written first, so loads always have a
	// live source span.
	for r := 0; r < stagedGPRs; r++ {
		g.emit(isr.Instr{Op: isr.OpWRGPR, Gpr: r, Imm: g.lanesImm()})
		written[r] = true
	}
	// Cap length (and per-op cost above) so a generated program cannot
	// legally outrun the refresh allowance between ACT catch-up points.
	for !src.exhausted() && len(g.p.Instrs) < 150 {
		g.step(written)
	}
	g.emit(isr.Instr{Op: isr.OpRDGPR, Gpr: 0, Count: 1 + src.intn(stagedGPRs*(geo.ColBits/16)-1)})
	return &g.p
}

func FuzzISR(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 0, 4, 9, 3, 6, 200, 10, 8, 11, 5, 13, 14, 15, 7})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	seq := make([]byte, 256)
	for i := range seq {
		seq[i] = byte(i * 7)
	}
	f.Add(seq)

	cfg := testConfig(2)
	opts := host.Newton()
	opts.Verify = true

	f.Fuzz(func(t *testing.T, data []byte) {
		prog := generate(&fuzzSource{data: data}, cfg.Geometry, opts.Latches())

		// Codec round trip is the identity (compare by bit pattern; the
		// generator only emits finite immediates, but be strict anyway).
		text := isr.EncodeString(prog)
		parsed, err := isr.Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("generated program does not parse back: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(prog, parsed) {
			t.Fatalf("codec round trip altered the program:\n%s", text)
		}

		// The generator maintains the hazard rules by construction.
		if err := isr.CheckProgram(prog, cfg.Geometry, opts.Latches()); err != nil {
			t.Fatalf("generated program fails static check: %v\n%s", err, text)
		}

		// Checker-clean programs replay clean under full conformance,
		// with masked instructions fanned out or run serially alike.
		replay := func(o host.Options) (*isr.Report, dram.Stats) {
			c, err := host.NewController(cfg, o)
			if err != nil {
				t.Fatal(err)
			}
			fe, err := isr.NewFrontend(c)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := fe.Run(prog)
			if err != nil {
				t.Fatalf("checker-clean program failed to replay (Parallel=%d): %v\n%s", o.Parallel, err, text)
			}
			return rep, c.Stats()
		}
		rep, st := replay(opts)
		for _, x := range rep.Readback {
			_ = math.Float32bits(x) // readback is always well-formed float32 storage
		}
		serial := opts
		serial.Parallel = host.ParallelOff
		sRep, sSt := replay(serial)
		if !reflect.DeepEqual(rep, sRep) || st != sSt {
			t.Fatalf("serial replay differs:\nparallel: %+v %+v\nserial:   %+v %+v\n%s", rep, st, sRep, sSt, text)
		}
	})
}
