package aim

// useAVX2 selects columnsAVX2 for the 16-lane column step. The CPU
// alone decides: the kernel needs AVX2 and an OS that saves YMM state,
// and it computes the same bits as the Go loop over column16.
var useAVX2 = hasAVX2()

// columnsAVX2 is foldColumns' loop at 16 lanes in AVX2
// (column_amd64.s): the same column sums, latch chain and stop at the
// first NaN sum, bit for bit.
//
//go:noescape
func columnsAVX2(w []byte, in []float32, acc float32) (latch float32, folded int)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state.
func hasAVX2() bool
