#include "textflag.h"

// ROUND8 rounds every float32 lane of r to bfloat16 in place, as
// roundFinite does: r += 0x7FFF + (r>>16)&1, then r &^= 0xFFFF. Y4, Y5
// and Y6 hold 0xFFFF0000, 1 and 0x7FFF in every lane; t is clobbered.
// ROUND4 is the same on the low 128 bits. The Go assembler writes AVX
// operands in the reverse of Intel order: the destination comes last.
#define ROUND8(r, t) \
	VPSRLD $16, r, t \
	VPAND  Y5, t, t \
	VPADDD Y6, t, t \
	VPADDD t, r, r   \
	VPAND  Y4, r, r

#define ROUND4(r, t) \
	VPSRLD $16, r, t \
	VPAND  X5, t, t \
	VPADDD X6, t, t \
	VPADDD t, r, r   \
	VPAND  X4, r, r

// func column16AVX2(w *[32]byte, in *[16]float32) float32
//
// column16 in AVX2: the 16 lane products, then TreeReduce's adjacent
// pairing level by level, rounding to bfloat16 after every multiply and
// every add. Y0 holds lanes 0-7 and Y1 lanes 8-15 as loaded; after each
// level the partial sums sit as in the comments, so every add pairs the
// same two values column16's does.
TEXT ·column16AVX2(SB), NOSPLIT, $0-20
	MOVQ w+0(FP), SI
	MOVQ in+8(FP), DI

	// The rounding constants, from one all-ones register.
	VPCMPEQD Y4, Y4, Y4
	VPSRLD   $31, Y4, Y5
	VPSRLD   $17, Y4, Y6
	VPSLLD   $16, Y4, Y4

	// Widen the column's bf16 lanes to float32 and multiply by the
	// widened input, column times input as column16 does.
	VPMOVZXWD (SI), Y0
	VPMOVZXWD 16(SI), Y1
	VPSLLD    $16, Y0, Y0
	VPSLLD    $16, Y1, Y1
	VMULPS    (DI), Y0, Y0
	VMULPS    32(DI), Y1, Y1
	ROUND8(Y0, Y2)
	ROUND8(Y1, Y3)

	// Level 1: [s0 s1 s4 s5 | s2 s3 s6 s7], s_i = p_2i + p_2i+1.
	VHADDPS Y1, Y0, Y0
	ROUND8(Y0, Y2)

	// Level 2: [t0 t2 t0 t2 | t1 t3 t1 t3], t_i = s_2i + s_2i+1.
	VHADDPS Y0, Y0, Y0
	ROUND8(Y0, Y2)

	// Level 3: [t0+t1 t2+t3 ...].
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	ROUND4(X0, X2)

	// Level 4: the column sum in lane 0.
	VHADDPS X0, X0, X0
	ROUND4(X0, X2)

	VMOVSS X0, ret+16(FP)
	VZEROUPPER
	RET

// func hasAVX2() bool
//
// Reports whether the CPU has AVX2 and the OS saves YMM state across
// context switches: CPUID leaf 7 must exist; leaf 1 ECX must have
// OSXSAVE (bit 27) and AVX (bit 28); XGETBV's XCR0 must have XMM
// (bit 1) and YMM (bit 2) state enabled; leaf 7 EBX must have AVX2
// (bit 5).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JB   no

	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no

	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no

	MOVL $7, AX
	MOVL $0, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
