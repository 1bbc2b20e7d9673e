// Package traceio records and replays cycle-stamped AiM command traces,
// the trace-driven workflow DRAM simulators like DRAMsim2 (which the
// paper's evaluation builds on) traditionally offer: capture the command
// stream of a live run, inspect or transform it offline, and replay it
// through the host controller's issuer, which checks every timing
// constraint, to validate schedules produced elsewhere.
// conformance.CheckTrace is the independent referee for a parsed trace.
//
// The format is line-oriented text, one command per line:
//
//	<cycle> <KIND> [bank=N] [cluster=N] [row=N] [col=N] [latch=N] [slot=N] [af=N] [data=HEX]
//
// with '#' comments and blank lines ignored. KIND uses the paper's
// mnemonics (ACT, PRE, PREA, RD, WR, REF, GWRITE, G_ACT, COMP, COMP_BK,
// BCAST, COLRD, MAC, READRES) plus the ISR-era on-device commands
// (WR_BIAS, RD_AF, EWMUL, EWADD, COPY_BKGB, COPY_GBBK); bank may be
// 'all' for ganged COLRD/MAC.
package traceio

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"

	"newton/internal/aim"
	"newton/internal/conformance"
	"newton/internal/dram"
	"newton/internal/host"
)

// TimedCommand is one trace entry, the type conformance.CheckTrace
// checks.
type TimedCommand = conformance.TimedCommand

var kindByName = map[string]dram.Kind{
	"ACT":       dram.KindACT,
	"PRE":       dram.KindPRE,
	"PREA":      dram.KindPREA,
	"RD":        dram.KindRD,
	"WR":        dram.KindWR,
	"REF":       dram.KindREF,
	"GWRITE":    dram.KindGWRITE,
	"G_ACT":     dram.KindGACT,
	"COMP":      dram.KindCOMP,
	"COMP_BK":   dram.KindCOMPBank,
	"BCAST":     dram.KindBCAST,
	"COLRD":     dram.KindCOLRD,
	"MAC":       dram.KindMAC,
	"READRES":   dram.KindREADRES,
	"WR_BIAS":   dram.KindWRBIAS,
	"RD_AF":     dram.KindRDAF,
	"EWMUL":     dram.KindEWMUL,
	"EWADD":     dram.KindEWADD,
	"COPY_BKGB": dram.KindCOPYBKGB,
	"COPY_GBBK": dram.KindCOPYGBBK,
}

// Write renders a trace in the package format.
func Write(w io.Writer, trace []TimedCommand) error {
	bw := bufio.NewWriter(w)
	for _, tc := range trace {
		if err := writeOne(bw, tc); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeOne(w io.Writer, tc TimedCommand) error {
	parts := []string{strconv.FormatInt(tc.Cycle, 10), tc.Cmd.Kind.String()}
	switch tc.Cmd.Kind {
	case dram.KindACT:
		parts = append(parts, field("bank", tc.Cmd.Bank), field("row", tc.Cmd.Row))
	case dram.KindPRE:
		parts = append(parts, field("bank", tc.Cmd.Bank))
	case dram.KindGACT:
		parts = append(parts, field("cluster", tc.Cmd.Cluster), field("row", tc.Cmd.Row))
	case dram.KindRD:
		parts = append(parts, field("bank", tc.Cmd.Bank), field("col", tc.Cmd.Col))
	case dram.KindWR:
		parts = append(parts, field("bank", tc.Cmd.Bank), field("col", tc.Cmd.Col),
			"data="+hex.EncodeToString(tc.Cmd.Data))
	case dram.KindGWRITE:
		parts = append(parts, field("col", tc.Cmd.Col),
			"data="+hex.EncodeToString(tc.Cmd.Data))
	case dram.KindCOMP:
		parts = append(parts, field("col", tc.Cmd.Col), field("latch", tc.Cmd.Latch))
	case dram.KindCOMPBank:
		parts = append(parts, field("bank", tc.Cmd.Bank), field("col", tc.Cmd.Col),
			field("latch", tc.Cmd.Latch))
	case dram.KindBCAST:
		parts = append(parts, field("col", tc.Cmd.Col))
	case dram.KindCOLRD:
		parts = append(parts, bankField(tc.Cmd.Bank), field("col", tc.Cmd.Col))
	case dram.KindMAC:
		parts = append(parts, bankField(tc.Cmd.Bank), field("latch", tc.Cmd.Latch))
	case dram.KindREADRES:
		parts = append(parts, field("latch", tc.Cmd.Latch))
	case dram.KindWRBIAS:
		parts = append(parts, field("latch", tc.Cmd.Latch),
			"data="+hex.EncodeToString(tc.Cmd.Data))
	case dram.KindRDAF:
		parts = append(parts, field("latch", tc.Cmd.Latch), field("af", tc.Cmd.AF))
	case dram.KindEWMUL, dram.KindEWADD:
		parts = append(parts, field("col", tc.Cmd.Col), field("slot", tc.Cmd.Slot))
	case dram.KindCOPYBKGB, dram.KindCOPYGBBK:
		parts = append(parts, field("bank", tc.Cmd.Bank), field("col", tc.Cmd.Col),
			field("slot", tc.Cmd.Slot))
	case dram.KindPREA, dram.KindREF:
		// no operands
	default:
		return fmt.Errorf("traceio: cannot serialize kind %v", tc.Cmd.Kind)
	}
	_, err := fmt.Fprintln(w, strings.Join(parts, " "))
	return err
}

func field(name string, v int) string { return fmt.Sprintf("%s=%d", name, v) }

func bankField(b int) string {
	if b == aim.AllBanks {
		return "bank=all"
	}
	return field("bank", b)
}

// Parse reads a trace. Errors identify the offending line.
func Parse(r io.Reader) ([]TimedCommand, error) {
	var out []TimedCommand
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		tc, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("traceio: line %d: %w", lineNo, err)
		}
		out = append(out, tc)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseLine(line string) (TimedCommand, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return TimedCommand{}, fmt.Errorf("want '<cycle> <KIND> ...', got %q", line)
	}
	cycle, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return TimedCommand{}, fmt.Errorf("bad cycle %q: %v", fields[0], err)
	}
	kind, ok := kindByName[fields[1]]
	if !ok {
		return TimedCommand{}, fmt.Errorf("unknown command kind %q", fields[1])
	}
	tc := TimedCommand{Cycle: cycle, Cmd: dram.Command{Kind: kind}}
	for _, f := range fields[2:] {
		key, val, found := strings.Cut(f, "=")
		if !found {
			return TimedCommand{}, fmt.Errorf("malformed field %q", f)
		}
		switch key {
		case "bank":
			if val == "all" {
				tc.Cmd.Bank = aim.AllBanks
				continue
			}
			if tc.Cmd.Bank, err = strconv.Atoi(val); err != nil {
				return TimedCommand{}, fmt.Errorf("bad bank %q", val)
			}
		case "cluster":
			if tc.Cmd.Cluster, err = strconv.Atoi(val); err != nil {
				return TimedCommand{}, fmt.Errorf("bad cluster %q", val)
			}
		case "row":
			if tc.Cmd.Row, err = strconv.Atoi(val); err != nil {
				return TimedCommand{}, fmt.Errorf("bad row %q", val)
			}
		case "col":
			if tc.Cmd.Col, err = strconv.Atoi(val); err != nil {
				return TimedCommand{}, fmt.Errorf("bad col %q", val)
			}
		case "latch":
			if tc.Cmd.Latch, err = strconv.Atoi(val); err != nil {
				return TimedCommand{}, fmt.Errorf("bad latch %q", val)
			}
		case "slot":
			if tc.Cmd.Slot, err = strconv.Atoi(val); err != nil {
				return TimedCommand{}, fmt.Errorf("bad slot %q", val)
			}
		case "af":
			if tc.Cmd.AF, err = strconv.Atoi(val); err != nil {
				return TimedCommand{}, fmt.Errorf("bad af %q", val)
			}
		case "data":
			if tc.Cmd.Data, err = hex.DecodeString(val); err != nil {
				return TimedCommand{}, fmt.Errorf("bad data hex: %v", err)
			}
		default:
			return TimedCommand{}, fmt.Errorf("unknown field %q", key)
		}
	}
	return tc, nil
}

// ReplayReport summarizes a replay.
type ReplayReport struct {
	Commands  int
	LastCycle int64
	Stats     dram.Stats
	// Results collects READRES outputs in trace order.
	Results [][]float32
}

// Replay issues a trace on channel 0 of c, a fresh controller, through
// the host's issuer: WaitChannel to each entry's recorded cycle, then
// IssueCommand. The trace must be sorted by cycle. In strict mode an
// entry that cannot issue at its recorded cycle aborts the replay
// before it issues, naming the earliest legal cycle; otherwise the
// issuer takes it at its earliest legal cycle at or after the previous
// command's, and each late entry counts as a shift.
func Replay(c *host.Controller, trace []TimedCommand, strict bool) (ReplayReport, int, error) {
	var rep ReplayReport
	shifted := 0
	var last int64
	e := c.Engine(0)
	for i, tc := range trace {
		if tc.Cycle < last {
			return rep, shifted, fmt.Errorf("traceio: entry %d at cycle %d after cycle %d: trace must be sorted",
				i, tc.Cycle, last)
		}
		last = tc.Cycle
		if strict {
			if earliest := e.EarliestIssue(tc.Cmd, tc.Cycle); earliest > tc.Cycle {
				return rep, shifted, fmt.Errorf("traceio: entry %d (%v at %d) violates timing; earliest legal cycle %d",
					i, tc.Cmd, tc.Cycle, earliest)
			}
		}
		c.WaitChannel(0, tc.Cycle)
		res, at, err := c.IssueCommand(0, tc.Cmd)
		if err != nil {
			return rep, shifted, fmt.Errorf("traceio: entry %d (%v at %d): %w", i, tc.Cmd, tc.Cycle, err)
		}
		if at > tc.Cycle {
			shifted++
		}
		rep.Commands++
		rep.LastCycle = at
		if res.Results != nil {
			rep.Results = append(rep.Results, res.Results.Float32Slice())
		}
	}
	rep.Stats = c.Stats()
	return rep, shifted, nil
}
