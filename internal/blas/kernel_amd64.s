//go:build amd64 && !noasm

#include "textflag.h"

// One k step of the 4×8 tile: Y8/Y9 hold the panel's eight B values for this
// k, each A value is broadcast and multiplied into a scratch register, and
// the product is added to its accumulator. VMULPD then VADDPD, never FMA: the
// scalar tile rounds the product before the add, and so must this.
#define KSTEP(off) \
	VMOVUPD      (8*off)(DX), Y8       \
	VMOVUPD      (8*off+32)(DX), Y9    \
	VBROADCASTSD (off)(SI)(AX*1), Y10  \
	VMULPD       Y8, Y10, Y12          \
	VMULPD       Y9, Y10, Y13          \
	VADDPD       Y12, Y0, Y0           \
	VADDPD       Y13, Y1, Y1           \
	VBROADCASTSD (off)(R11)(AX*1), Y11 \
	VMULPD       Y8, Y11, Y14          \
	VMULPD       Y9, Y11, Y15          \
	VADDPD       Y14, Y2, Y2           \
	VADDPD       Y15, Y3, Y3           \
	VBROADCASTSD (off)(R12)(AX*1), Y10 \
	VMULPD       Y8, Y10, Y12          \
	VMULPD       Y9, Y10, Y13          \
	VADDPD       Y12, Y4, Y4           \
	VADDPD       Y13, Y5, Y5           \
	VBROADCASTSD (off)(R13)(AX*1), Y11 \
	VMULPD       Y8, Y11, Y14          \
	VMULPD       Y9, Y11, Y15          \
	VADDPD       Y14, Y6, Y6           \
	VADDPD       Y15, Y7, Y7

// The body of scanLT and scanLE: 16 scores per iteration, compared with thr
// (Y0) under the predicate pred. VCMPPD's NLT_UQ (0x15) and NLE_UQ (0x16)
// are "not less" and "not less or equal", true when either side is NaN,
// so the first lane set is the first score the rule does not skip; its
// index comes from the four lane masks joined into one 16-bit word.
#define SCAN(pred) \
	MOVQ         s+0(FP), SI      \
	MOVQ         n+8(FP), CX      \
	VBROADCASTSD thr+16(FP), Y0   \
	XORQ         AX, AX           \
loop:                             \
	VMOVUPD      (SI), Y1         \
	VMOVUPD      32(SI), Y2       \
	VMOVUPD      64(SI), Y3       \
	VMOVUPD      96(SI), Y4       \
	VCMPPD       $pred, Y0, Y1, Y1 \
	VCMPPD       $pred, Y0, Y2, Y2 \
	VCMPPD       $pred, Y0, Y3, Y3 \
	VCMPPD       $pred, Y0, Y4, Y4 \
	VORPD        Y1, Y2, Y5       \
	VORPD        Y3, Y4, Y6       \
	VORPD        Y5, Y6, Y5       \
	VPTEST       Y5, Y5           \
	JNZ          hit              \
	ADDQ         $128, SI         \
	ADDQ         $16, AX          \
	CMPQ         AX, CX           \
	JB           loop             \
	VZEROUPPER                    \
	MOVQ         AX, ret+24(FP)   \
	RET                           \
hit:                              \
	VMOVMSKPD    Y1, BX           \
	VMOVMSKPD    Y2, DX           \
	SHLQ         $4, DX           \
	ORQ          DX, BX           \
	VMOVMSKPD    Y3, DX           \
	SHLQ         $8, DX           \
	ORQ          DX, BX           \
	VMOVMSKPD    Y4, DX           \
	SHLQ         $12, DX          \
	ORQ          DX, BX           \
	BSFQ         BX, BX           \
	ADDQ         BX, AX           \
	VZEROUPPER                    \
	MOVQ         AX, ret+24(FP)   \
	RET

// func kernel4x8(a, bp, c *float64, f, ldc, npanels int)
TEXT ·kernel4x8(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ bp+8(FP), DX
	MOVQ c+16(FP), DI
	MOVQ f+24(FP), CX
	MOVQ ldc+32(FP), R8
	MOVQ npanels+40(FP), R9
	SHLQ $3, R8              // C row stride in bytes
	MOVQ CX, R10
	SHLQ $3, R10             // A row stride in bytes
	LEAQ (SI)(R10*1), R11    // A rows 1..3
	LEAQ (R11)(R10*1), R12
	LEAQ (R12)(R10*1), R13
	LEAQ (DI)(R8*1), R14     // C rows 1..3
	LEAQ (R14)(R8*1), R15
	LEAQ (R15)(R8*1), R10

panel:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX            // byte offset of k within an A row
	MOVQ   CX, BX
	SHRQ   $1, BX            // k pairs
	JZ     tail

pair:
	KSTEP(0)
	KSTEP(8)
	ADDQ $128, DX
	ADDQ $16, AX
	DECQ BX
	JNZ  pair

tail:
	TESTQ $1, CX
	JZ    store
	KSTEP(0)
	ADDQ $64, DX

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (R14)
	VMOVUPD Y3, 32(R14)
	VMOVUPD Y4, (R15)
	VMOVUPD Y5, 32(R15)
	VMOVUPD Y6, (R10)
	VMOVUPD Y7, 32(R10)
	ADDQ    $64, DI
	ADDQ    $64, R14
	ADDQ    $64, R15
	ADDQ    $64, R10
	DECQ    R9
	JNZ     panel
	VZEROUPPER
	RET

// func scanLT(s *float64, n int, thr float64) int
TEXT ·scanLT(SB), NOSPLIT, $0-32
	SCAN(0x15)

// func scanLE(s *float64, n int, thr float64) int
TEXT ·scanLE(SB), NOSPLIT, $0-32
	SCAN(0x16)

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
