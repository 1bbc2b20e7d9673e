package fault

import (
	"fmt"

	"newton/internal/dram"
	"newton/internal/layout"
)

// SEC-DED(72,64): a single-error-correcting, double-error-detecting
// extended Hamming code over 64-bit data words, the classic DRAM ECC
// word size. Newton's AiM reads bypass the memory controller's ECC
// (§III-E), so the host keeps the 8 check bits per word on its own side
// and validates them during scrub: data bits travel through DRAM and
// may flip; check bits never leave the host.
//
// Codeword positions are 1-indexed 1..71: positions 2^k (1,2,4,...,64)
// hold the seven Hamming check bits, the remaining 64 positions hold
// data bits in ascending order, and an eighth overall-parity bit covers
// the whole codeword so double errors are distinguishable from single
// ones.

// Status classifies one word's ECC check.
type Status uint8

const (
	// StatusOK means the word matched its check bits.
	StatusOK Status = iota
	// StatusCorrected means a single-bit error was found and repaired
	// (in the data or in a check bit).
	StatusCorrected
	// StatusDetected means an uncorrectable (multi-bit) error was
	// found; the word's content cannot be trusted and must be refetched
	// from a golden copy.
	StatusDetected
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusCorrected:
		return "corrected"
	case StatusDetected:
		return "detected"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// dataPos[i] is the 1-indexed codeword position of data bit i: the
// non-power-of-two positions of 1..71, ascending.
var dataPos = func() [64]int {
	var pos [64]int
	i := 0
	for p := 1; p <= 71; p++ {
		if p&(p-1) != 0 { // not a power of two
			pos[i] = p
			i++
		}
	}
	return pos
}()

// posData inverts dataPos: codeword position -> data bit index + 1
// (0 = a check-bit position).
var posData = func() [72]int {
	var inv [72]int
	for i, p := range dataPos {
		inv[p] = i + 1
	}
	return inv
}()

// ECCEncode returns the 8 check bits for a 64-bit data word: seven
// Hamming bits in the low 7 positions (bit k of the result is the check
// bit at codeword position 2^k) plus the overall parity in bit 7.
func ECCEncode(w uint64) uint8 {
	var syn int
	ones := 0
	for i := 0; i < 64; i++ {
		if w>>i&1 == 1 {
			syn ^= dataPos[i]
			ones++
		}
	}
	var check uint8
	for k := 0; k < 7; k++ {
		if syn>>k&1 == 1 {
			check |= 1 << k
			ones++
		}
	}
	if ones&1 == 1 {
		check |= 1 << 7
	}
	return check
}

// ECCDecode validates a (word, check) pair and returns the corrected
// word with its status. StatusDetected words are returned unmodified;
// the caller must refetch them.
func ECCDecode(w uint64, check uint8) (uint64, Status) {
	syn := 0
	parity := 0
	for i := 0; i < 64; i++ {
		if w>>i&1 == 1 {
			syn ^= dataPos[i]
			parity ^= 1
		}
	}
	for k := 0; k < 7; k++ {
		if check>>k&1 == 1 {
			syn ^= 1 << k
			parity ^= 1
		}
	}
	parity ^= int(check >> 7 & 1)
	switch {
	case syn == 0 && parity == 0:
		return w, StatusOK
	case parity == 1:
		// Odd number of flipped bits: assume one and repair it. A
		// syndrome of 0 means the overall-parity bit itself flipped; a
		// power-of-two syndrome names a check bit; anything else names
		// a data bit. (Triple errors alias onto this case and
		// miscorrect — inherent to SEC-DED, and exactly the silent-
		// corruption channel the campaigns measure.)
		if syn > 71 {
			return w, StatusDetected // impossible position: >= 3 flips
		}
		if db := posData[syn]; db != 0 {
			return w ^ 1<<(db-1), StatusCorrected
		}
		return w, StatusCorrected // check-bit or parity-bit error
	default:
		// Even number of flips (>= 2) with a nonzero syndrome.
		return w, StatusDetected
	}
}

// rowKey addresses one stored DRAM row.
type rowKey struct {
	Ch, Bank, Row int
}

// Store holds the host-side check bits for every DRAM row a placement
// occupies: one check byte per 64-bit data word. Encode-on-place, check-
// on-scrub. The store lives in host memory, so DRAM faults never touch
// it.
type Store struct {
	p     *layout.Placement
	check map[rowKey][]byte
}

// NewStore encodes the placement's current DRAM contents. Call it right
// after the matrix is placed (while the data is known-good).
func NewStore(p *layout.Placement, channels []*dram.Channel) (*Store, error) {
	if len(channels) != p.Geometry().Channels {
		return nil, fmt.Errorf("fault: placement spans %d channels, got %d", p.Geometry().Channels, len(channels))
	}
	s := &Store{p: p, check: make(map[rowKey][]byte)}
	for _, k := range placementRows(p) {
		data, err := channels[k.Ch].Bank(k.Bank).PeekRow(k.Row)
		if err != nil {
			return nil, err
		}
		cs := make([]byte, len(data)/8)
		for w := range cs {
			cs[w] = ECCEncode(leWord(data[w*8:]))
		}
		s.check[k] = cs
	}
	return s, nil
}

// CheckBytes returns the stored check bytes for a row (nil when the row
// is outside the placement).
func (s *Store) CheckBytes(ch, bank, row int) []byte {
	return s.check[rowKey{ch, bank, row}]
}

// Words returns how many 64-bit words the store covers.
func (s *Store) Words() int64 {
	var n int64
	for _, cs := range s.check {
		n += int64(len(cs))
	}
	return n
}

// leWord assembles a little-endian 64-bit word from 8 bytes.
func leWord(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// putLEWord stores a 64-bit word back into 8 bytes, little-endian.
func putLEWord(b []byte, w uint64) {
	_ = b[7]
	b[0], b[1], b[2], b[3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
	b[4], b[5], b[6], b[7] = byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56)
}

// placementRows lists the (channel, bank, dramRow) triples a placement
// occupies, in deterministic ascending order, so every walk over the
// stored state (encoding, injection, scrubbing, auditing) visits rows
// identically.
func placementRows(p *layout.Placement) []rowKey {
	geo := p.Geometry()
	var keys []rowKey
	for ch := 0; ch < geo.Channels; ch++ {
		rows := p.RowsPerBank(ch)
		for bank := 0; bank < geo.Banks; bank++ {
			for r := 0; r < rows; r++ {
				keys = append(keys, rowKey{ch, bank, p.BaseRow() + r})
			}
		}
	}
	return keys
}
