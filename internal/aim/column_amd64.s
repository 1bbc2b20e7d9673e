#include "textflag.h"

// ROUND8 rounds every float32 lane of r to bfloat16 in place, as
// roundFinite does: r += 0x7FFF + (r>>16)&1, then r &^= 0xFFFF. Y4, Y5
// and Y6 hold 0xFFFF0000, 1 and 0x7FFF in every lane; t is clobbered.
// The 0x7FFF goes in beside the shift, so four dependent instructions
// round a value. ROUND4 is the same on the low 128 bits. The Go
// assembler writes AVX operands in the reverse of Intel order: the
// destination comes last.
#define ROUND8(r, t) \
	VPSRLD $16, r, t \
	VPADDD Y6, r, r  \
	VPAND  Y5, t, t \
	VPADDD t, r, r   \
	VPAND  Y4, r, r

#define ROUND4(r, t) \
	VPSRLD $16, r, t \
	VPADDD X6, r, r  \
	VPAND  X5, t, t \
	VPADDD t, r, r   \
	VPAND  X4, r, r

// func columnsAVX2(w []byte, in []float32, acc float32) (latch float32, folded int)
//
// column16 in AVX2 over the len(w)/32 consecutive columns of a run,
// each column sum folded into the latch chain in column order: column
// c's 32 wire bytes at w[32c:] and its 16 widened inputs at in[16c:],
// then acc = round(acc + sum). It stops before the first column whose
// sum is NaN and returns acc and the number of columns folded. The
// caller checks the lengths.
//
// Each iteration takes two columns, A and B (B is A again when A is the
// run's last column): the 16 lane products of each, then TreeReduce's
// adjacent pairing level by level, rounding to bfloat16 after every
// multiply and every add. Y0/Y1 hold A's lanes 0-7/8-15 and Y8/Y9 B's as
// loaded; after each level the partial sums sit as in the comments (s
// for A, S for B), so every add pairs the same two values, in the same
// order, as column16's and as a lone column's: the two trees share
// levels 2 to 4. Only the latch add (X7) links one column to the next.
TEXT ·columnsAVX2(SB), NOSPLIT, $0-72
	MOVQ  w_base+0(FP), SI
	MOVQ  w_len+8(FP), CX
	SHRQ  $5, CX
	MOVQ  in_base+24(FP), DI
	MOVSS acc+48(FP), X7
	XORQ  AX, AX
	TESTQ CX, CX
	JZ    done

	// The rounding constants, from one all-ones register.
	VPCMPEQD Y4, Y4, Y4
	VPSRLD   $31, Y4, Y5
	VPSRLD   $17, Y4, Y6
	VPSLLD   $16, Y4, Y4

loop:
	// B is the next column, or A again when A is the last.
	LEAQ 32(SI), R8
	LEAQ 64(DI), R9
	LEAQ 1(AX), DX
	CMPQ DX, CX
	JB   pair
	MOVQ SI, R8
	MOVQ DI, R9

pair:
	// Widen each column's bf16 lanes to float32 and multiply by the
	// widened input, column times input as column16 does.
	VPMOVZXWD (SI), Y0
	VPMOVZXWD 16(SI), Y1
	VPMOVZXWD (R8), Y8
	VPMOVZXWD 16(R8), Y9
	VPSLLD    $16, Y0, Y0
	VPSLLD    $16, Y1, Y1
	VPSLLD    $16, Y8, Y8
	VPSLLD    $16, Y9, Y9
	VMULPS    (DI), Y0, Y0
	VMULPS    32(DI), Y1, Y1
	VMULPS    (R9), Y8, Y8
	VMULPS    32(R9), Y9, Y9
	ROUND8(Y0, Y2)
	ROUND8(Y1, Y3)
	ROUND8(Y8, Y10)
	ROUND8(Y9, Y11)

	// Level 1, per column: [s0 s1 s4 s5 | s2 s3 s6 s7], s_i = p_2i + p_2i+1.
	VHADDPS Y1, Y0, Y0
	VHADDPS Y9, Y8, Y8
	ROUND8(Y0, Y2)
	ROUND8(Y8, Y10)

	// Level 2: [t0 t2 T0 T2 | t1 t3 T1 T3], t_i = s_2i + s_2i+1.
	VHADDPS Y8, Y0, Y0
	ROUND8(Y0, Y2)

	// Level 3: [t0+t1 t2+t3 T0+T1 T2+T3].
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	ROUND4(X0, X2)

	// Level 4: the column sums, A's in lane 0 and B's in lane 1.
	VHADDPS X0, X0, X0
	ROUND4(X0, X2)

	// The latch chain, acc = round(acc + sum), A then B. A NaN sum
	// (unordered with itself) ends the run before its column.
	VUCOMISS X0, X0
	JPS      out
	VADDSS   X0, X7, X7
	ROUND4(X7, X3)
	INCQ     AX
	CMPQ     AX, CX
	JAE      out

	VMOVSHDUP X0, X1
	VUCOMISS  X1, X1
	JPS       out
	VADDSS    X1, X7, X7
	ROUND4(X7, X3)
	INCQ      AX

	ADDQ $64, SI
	ADDQ $128, DI
	CMPQ AX, CX
	JB   loop

out:
	VZEROUPPER

done:
	MOVSS X7, latch+56(FP)
	MOVQ  AX, folded+64(FP)
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
