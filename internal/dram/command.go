package dram

import "fmt"

// Kind identifies a DRAM or AiM command.
type Kind uint8

// Conventional DRAM commands plus Newton's AiM command set (Table I).
const (
	// KindInvalid is the zero value; issuing it is always an error.
	KindInvalid Kind = iota

	// KindACT activates (opens) a row in one bank.
	KindACT
	// KindPRE precharges (closes) one bank.
	KindPRE
	// KindPREA precharges all banks in the channel.
	KindPREA
	// KindRD reads one column I/O from an open row.
	KindRD
	// KindWR writes one column I/O into an open row.
	KindWR
	// KindREF performs an all-bank refresh; every bank must be idle and
	// the channel is busy for tRFC.
	KindREF

	// KindGWRITE writes one column-I/O-wide slot of the channel's global
	// input-vector buffer (Table I: "WRITE sub-chunk# to the Global
	// Buffer"). It touches no bank.
	KindGWRITE
	// KindGACT gangs the activation of one 4-bank cluster in a single
	// command (Table I: "Ganged activation of 4-bank cluster#").
	KindGACT
	// KindCOMP is Newton's complex compute command: it broadcasts one
	// sub-chunk from the global buffer, column-reads the corresponding
	// filter sub-chunk, and multiply-accumulates - in all banks at once
	// (Table I: "Ganged multiply of sub-chunk# in all banks").
	KindCOMP
	// KindCOMPBank is the non-ganged variant of COMP used by the
	// Non-opt-Newton baseline: the same three fused steps but in a single
	// bank, so consuming a row across n banks costs n times the command
	// bandwidth (paper §III-D motivates ganging with exactly this cost).
	KindCOMPBank
	// KindBCAST, KindCOLRD and KindMAC are the three simple commands that
	// one COMP replaces when the "complex commands" optimization is off:
	// global-buffer broadcast, filter column read, and multiply-add
	// (paper §III-D: "employing a simple command for each of the three
	// steps would cause significant pressure on the command bandwidth").
	KindBCAST
	KindCOLRD
	KindMAC
	// KindREADRES reads and concatenates the result latches of all banks
	// in one command (Table I: "Read the Result latches of all banks").
	KindREADRES

	// The commands below come from the productized AiM ISA rather than
	// the Newton paper proper: they let bias add, activation and
	// element-wise chains run on-device, so a whole layer stack executes
	// without a host round-trip per layer (internal/isr drives them).

	// KindWRBIAS preloads the per-bank MAC result latches with bias
	// values in one command: lane b of Data becomes bank b's latch. It
	// touches no bank cells, only the latch write port.
	KindWRBIAS
	// KindRDAF reads the result latches of all banks like READRES but
	// routes each value through the channel's activation-function lookup
	// table first. AF selects the function (see AFKind).
	KindRDAF
	// KindEWMUL multiplies global-buffer slot Col element-wise by slot
	// Slot, in place: gb[Col] *= gb[Slot]. Banks are untouched.
	KindEWMUL
	// KindEWADD adds global-buffer slot Slot element-wise into slot Col:
	// gb[Col] += gb[Slot]. Banks are untouched.
	KindEWADD
	// KindCOPYBKGB copies one column I/O of bank Bank's open row into
	// global-buffer slot Slot (a bank-to-buffer move: a column read that
	// lands in the buffer instead of crossing the external bus).
	KindCOPYBKGB
	// KindCOPYGBBK copies global-buffer slot Slot into column Col of bank
	// Bank's open row (a buffer-to-bank move, paced like a write).
	KindCOPYGBBK
)

// AF selector values carried by RD_AF commands. AFNone reads the latch
// unmodified; the others route it through the matching 2^16-entry
// bfloat16 lookup table (internal/aim builds them once, lazily).
const (
	AFNone = iota
	AFReLU
	AFSigmoid
	AFTanh
	// AFCount bounds the selector range for protocol checks.
	AFCount
)

var kindNames = map[Kind]string{
	KindInvalid:  "INVALID",
	KindACT:      "ACT",
	KindPRE:      "PRE",
	KindPREA:     "PREA",
	KindRD:       "RD",
	KindWR:       "WR",
	KindREF:      "REF",
	KindGWRITE:   "GWRITE",
	KindGACT:     "G_ACT",
	KindCOMP:     "COMP",
	KindCOMPBank: "COMP_BK",
	KindBCAST:    "BCAST",
	KindCOLRD:    "COLRD",
	KindMAC:      "MAC",
	KindREADRES:  "READRES",
	KindWRBIAS:   "WR_BIAS",
	KindRDAF:     "RD_AF",
	KindEWMUL:    "EWMUL",
	KindEWADD:    "EWADD",
	KindCOPYBKGB: "COPY_BKGB",
	KindCOPYGBBK: "COPY_GBBK",
}

// String returns the mnemonic used in the paper's figures.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsAiM reports whether the command belongs to Newton's extension set
// rather than the conventional DRAM command set.
func (k Kind) IsAiM() bool {
	switch k {
	case KindGWRITE, KindGACT, KindCOMP, KindCOMPBank, KindBCAST, KindCOLRD, KindMAC, KindREADRES,
		KindWRBIAS, KindRDAF, KindEWMUL, KindEWADD, KindCOPYBKGB, KindCOPYGBBK:
		return true
	}
	return false
}

// Command is one command on a channel's command bus.
//
// Field use by kind:
//
//	ACT, PRE:          Bank, Row (PRE ignores Row)
//	PREA, REF:         no fields
//	RD, WR:            Bank, Col (WR also Data)
//	GWRITE:            Col (global-buffer slot), Data
//	G_ACT:             Cluster, Row
//	COMP:              Col (sub-chunk index, both for the global buffer
//	                   read and the filter column access)
//	COMP_BK/COLRD/MAC: Bank, Col
//	BCAST:             Col
//	READRES:           no fields
//	WR_BIAS:           Latch, Data (one bf16 lane per bank)
//	RD_AF:             Latch, AF (activation-function selector)
//	EWMUL/EWADD:       Col (destination slot), Slot (source slot)
//	COPY_BKGB:         Bank, Col, Slot (destination slot)
//	COPY_GBBK:         Bank, Col, Slot (source slot)
type Command struct {
	Kind    Kind
	Bank    int
	Cluster int
	Row     int
	Col     int
	Data    []byte
	// Latch selects the per-bank result latch for compute commands and
	// READRES. Newton proper has a single latch (0); the §III-C
	// quad-latch design point uses 0-3.
	Latch int
	// Slot is the second global-buffer slot operand of the element-wise
	// and copy commands (the first rides in Col).
	Slot int
	// AF selects the activation function applied by RD_AF (AFNone..AFTanh).
	AF int
}

// String renders the command compactly for traces.
func (c Command) String() string {
	switch c.Kind {
	case KindACT:
		return fmt.Sprintf("ACT b%d r%d", c.Bank, c.Row)
	case KindPRE:
		return fmt.Sprintf("PRE b%d", c.Bank)
	case KindRD, KindWR, KindCOMPBank, KindCOLRD, KindMAC:
		return fmt.Sprintf("%s b%d c%d", c.Kind, c.Bank, c.Col)
	case KindGACT:
		return fmt.Sprintf("G_ACT cl%d r%d", c.Cluster, c.Row)
	case KindGWRITE, KindCOMP, KindBCAST:
		return fmt.Sprintf("%s c%d", c.Kind, c.Col)
	case KindWRBIAS:
		return fmt.Sprintf("WR_BIAS l%d", c.Latch)
	case KindRDAF:
		return fmt.Sprintf("RD_AF l%d af%d", c.Latch, c.AF)
	case KindEWMUL, KindEWADD:
		return fmt.Sprintf("%s c%d s%d", c.Kind, c.Col, c.Slot)
	case KindCOPYBKGB, KindCOPYGBBK:
		return fmt.Sprintf("%s b%d c%d s%d", c.Kind, c.Bank, c.Col, c.Slot)
	default:
		return c.Kind.String()
	}
}

// Error reports a command the channel's state machine rejected at Cycle:
// a closed bank, an out-of-range bank, row, cluster or column, or a bad
// payload. Timing is never an error: IssueTimed waits for the earliest
// legal cycle, which EarliestIssue names.
type Error struct {
	Cmd    Command
	Cycle  int64
	Reason string
}

func (e *Error) Error() string {
	return fmt.Sprintf("dram: %v at cycle %d: %s", e.Cmd, e.Cycle, e.Reason)
}
