package aim

// useAVX2 selects column16AVX2 for AccumulateColumn's 16-lane step. The
// CPU alone decides: the kernel needs AVX2 and an OS that saves YMM
// state, and it computes the same bits as column16.
var useAVX2 = hasAVX2()

// column16AVX2 is column16 in AVX2 (column_amd64.s), bit-identical to
// it on every column whose sum is not NaN.
//
//go:noescape
func column16AVX2(w *[32]byte, in *[16]float32) float32

// hasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state.
func hasAVX2() bool
