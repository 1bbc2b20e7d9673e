package fault

import (
	"math/rand"
	"testing"
)

// sample words exercising sparse, dense, and patterned bit populations.
var eccWords = []uint64{
	0,
	^uint64(0),
	1,
	1 << 63,
	0xDEADBEEFCAFEF00D,
	0xAAAAAAAAAAAAAAAA,
	0x5555555555555555,
	0x0123456789ABCDEF,
}

func TestECCCleanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	words := append([]uint64{}, eccWords...)
	for i := 0; i < 1000; i++ {
		words = append(words, rng.Uint64())
	}
	for _, w := range words {
		got, st := ECCDecode(w, ECCEncode(w))
		if st != StatusOK || got != w {
			t.Fatalf("clean word %#x decoded to %#x status %v", w, got, st)
		}
	}
}

// Every single data-bit flip must be corrected back to the original.
func TestECCCorrectsEverySingleDataBit(t *testing.T) {
	for _, w := range eccWords {
		check := ECCEncode(w)
		for bit := 0; bit < 64; bit++ {
			corrupt := w ^ 1<<uint(bit)
			got, st := ECCDecode(corrupt, check)
			if st != StatusCorrected {
				t.Fatalf("word %#x bit %d: status %v, want corrected", w, bit, st)
			}
			if got != w {
				t.Fatalf("word %#x bit %d: repaired to %#x", w, bit, got)
			}
		}
	}
}

// A flipped check bit (host-side in our model, but the codec must still
// be closed under it) corrects with the data untouched.
func TestECCCorrectsEverySingleCheckBit(t *testing.T) {
	for _, w := range eccWords {
		check := ECCEncode(w)
		for bit := 0; bit < 8; bit++ {
			got, st := ECCDecode(w, check^1<<uint(bit))
			if st != StatusCorrected {
				t.Fatalf("word %#x check bit %d: status %v, want corrected", w, bit, st)
			}
			if got != w {
				t.Fatalf("word %#x check bit %d: data changed to %#x", w, bit, got)
			}
		}
	}
}

// Every double data-bit flip must be detected, never miscorrected.
func TestECCDetectsEveryDoubleDataBit(t *testing.T) {
	for _, w := range eccWords[:4] {
		check := ECCEncode(w)
		for i := 0; i < 64; i++ {
			for j := i + 1; j < 64; j++ {
				corrupt := w ^ 1<<uint(i) ^ 1<<uint(j)
				got, st := ECCDecode(corrupt, check)
				if st != StatusDetected {
					t.Fatalf("word %#x bits %d+%d: status %v, want detected", w, i, j, st)
				}
				if got != corrupt {
					t.Fatalf("word %#x bits %d+%d: detected word was modified", w, i, j)
				}
			}
		}
	}
}

// Data-bit + check-bit double flips are also detected.
func TestECCDetectsDataPlusCheckBit(t *testing.T) {
	w := eccWords[4]
	check := ECCEncode(w)
	for i := 0; i < 64; i++ {
		for j := 0; j < 8; j++ {
			got, st := ECCDecode(w^1<<uint(i), check^1<<uint(j))
			if st != StatusDetected {
				t.Fatalf("data bit %d + check bit %d: status %v, want detected", i, j, st)
			}
			if got != w^1<<uint(i) {
				t.Fatalf("data bit %d + check bit %d: word modified", i, j)
			}
		}
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{
		StatusOK:        "ok",
		StatusCorrected: "corrected",
		StatusDetected:  "detected",
		Status(9):       "Status(9)",
	} {
		if got := st.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", uint8(st), got, want)
		}
	}
}
