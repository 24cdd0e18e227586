// Package isa defines the synthetic instruction-set architecture used by the
// visasim SMT processor model.
//
// The ISA is deliberately minimal: the simulator is timing- and
// vulnerability-driven, so instructions carry dataflow (register operands),
// memory behaviour (access-pattern identifiers resolved by the tracer) and
// control behaviour (branch targets), but no value semantics. Following the
// paper, the ISA is extended with a 1-bit ACE-ness tag filled in by offline
// vulnerability profiling (the paper extends the Alpha ISA the same way).
package isa

import "fmt"

// Kind enumerates instruction classes. Each class maps to one function-unit
// class and one execution latency.
type Kind uint8

// Instruction kinds.
const (
	Nop Kind = iota
	IntALU
	IntMul
	IntDiv
	Load
	Store
	FPALU
	FPMul
	FPDiv
	Branch // conditional branch
	Jump   // unconditional direct jump
	Call   // subroutine call (pushes return address)
	Return // subroutine return (pops return address)

	numKinds
)

// NumKinds is the number of distinct instruction kinds.
const NumKinds = int(numKinds)

var kindNames = [...]string{
	Nop:    "nop",
	IntALU: "ialu",
	IntMul: "imul",
	IntDiv: "idiv",
	Load:   "load",
	Store:  "store",
	FPALU:  "falu",
	FPMul:  "fmul",
	FPDiv:  "fdiv",
	Branch: "br",
	Jump:   "jmp",
	Call:   "call",
	Return: "ret",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsMem reports whether the kind accesses data memory.
func (k Kind) IsMem() bool { return k == Load || k == Store }

// IsControl reports whether the kind can redirect the PC.
func (k Kind) IsControl() bool {
	return k == Branch || k == Jump || k == Call || k == Return
}

// IsFP reports whether the kind executes on the floating-point cluster.
func (k Kind) IsFP() bool { return k == FPALU || k == FPMul || k == FPDiv }

// FUClass identifies a function-unit pool (Table 2 of the paper).
type FUClass uint8

// Function-unit classes.
const (
	FUIntALU    FUClass = iota // 8 units
	FUIntMulDiv                // 4 units
	FULoadStore                // 4 units
	FUFPALU                    // 8 units
	FUFPMulDiv                 // 4 units

	NumFUClasses
)

var fuNames = [...]string{
	FUIntALU:    "int-alu",
	FUIntMulDiv: "int-muldiv",
	FULoadStore: "load-store",
	FUFPALU:     "fp-alu",
	FUFPMulDiv:  "fp-muldiv",
}

func (c FUClass) String() string {
	if int(c) < len(fuNames) {
		return fuNames[c]
	}
	return fmt.Sprintf("fu(%d)", uint8(c))
}

// FU returns the function-unit class that executes kind k. Nop and control
// instructions use the integer ALU pool.
func (k Kind) FU() FUClass {
	switch k {
	case IntMul, IntDiv:
		return FUIntMulDiv
	case Load, Store:
		return FULoadStore
	case FPALU:
		return FUFPALU
	case FPMul, FPDiv:
		return FUFPMulDiv
	default:
		return FUIntALU
	}
}

// Latency returns the execution latency in cycles for kind k, excluding any
// memory-hierarchy latency (loads add cache access time on top).
func (k Kind) Latency() int {
	switch k {
	case IntMul:
		return 3
	case IntDiv:
		return 20
	case FPALU:
		return 2
	case FPMul:
		return 4
	case FPDiv:
		return 12
	case Load, Store:
		return 1 // address generation; cache latency added separately
	default:
		return 1
	}
}

// Reg identifies an architectural register. The file holds 32 integer and
// 32 floating-point registers; RegNone marks an absent operand.
type Reg uint8

// Register-space constants.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
	NumRegs    = NumIntRegs + NumFPRegs

	// FPBase is the index of the first floating-point register.
	FPBase Reg = NumIntRegs

	// RegZero is the hardwired zero register (writes are discarded,
	// reads are always ready), as in the Alpha ISA (r31).
	RegZero Reg = 0

	// RegSP is the conventional stack-pointer register used by
	// generated programs for call/return address material.
	RegSP Reg = 1

	// RegNone marks an unused operand slot.
	RegNone Reg = 0xFF
)

// Valid reports whether r names a real register.
func (r Reg) Valid() bool { return r < NumRegs }

// IsFP reports whether r is a floating-point register.
func (r Reg) IsFP() bool { return r >= FPBase && r < NumRegs }

func (r Reg) String() string {
	switch {
	case r == RegNone:
		return "-"
	case r.IsFP():
		return fmt.Sprintf("f%d", r-FPBase)
	case r.Valid():
		return fmt.Sprintf("r%d", r)
	default:
		return fmt.Sprintf("reg(%d)", uint8(r))
	}
}

// InstBytes is the fixed encoding size of one instruction; PCs advance by
// this amount on fall-through.
const InstBytes = 4

// Inst is a static (program-image) instruction. The paper's 1-bit ACE tag
// is not part of it: offline profiling writes the tags to ace.Profile.Tag,
// indexed like the program's instructions, so one read-only image serves
// every profile of a benchmark.
type Inst struct {
	PC   uint64
	Kind Kind

	Dest Reg // RegNone if no destination
	Src1 Reg // RegNone if unused
	Src2 Reg // RegNone if unused

	// Target is the taken-path PC for control instructions (except
	// Return, whose target comes from the return-address stack).
	Target uint64

	// MemPattern selects the tracer's address-pattern generator for
	// loads and stores; 0 for non-memory instructions.
	MemPattern uint32

	// BranchPattern selects the tracer's outcome generator for
	// conditional branches; 0 otherwise.
	BranchPattern uint32
}

// HasDest reports whether the instruction writes a register.
func (in *Inst) HasDest() bool { return in.Dest != RegNone && in.Dest != RegZero }

// FallThrough returns the PC of the next sequential instruction.
func (in *Inst) FallThrough() uint64 { return in.PC + InstBytes }

func (in *Inst) String() string {
	s := fmt.Sprintf("%#08x: %-5s %s", in.PC, in.Kind, in.Dest)
	if in.Src1 != RegNone {
		s += ", " + in.Src1.String()
	}
	if in.Src2 != RegNone {
		s += ", " + in.Src2.String()
	}
	if in.Kind.IsControl() {
		s += fmt.Sprintf(" -> %#08x", in.Target)
	}
	return s
}
