// Package isa defines the minimal dynamic instruction representation used by
// the simulator. The paper's evaluation machine is a MIPS R10000-class
// dynamic superscalar; for a trace-driven timing model only the properties
// that affect timing matter: operation class (which functional unit and
// latency), register dependences, memory address/size, control-flow outcome,
// and the privilege mode the instruction executed in.
//
// The package deliberately does not model instruction encodings or data
// values: the workload generators in internal/workload emit already-decoded
// dynamic instruction records.
package isa

import "fmt"

// Reg names an architectural register. Register 0 is the hard-wired zero
// register and never carries a dependence. Integer registers occupy
// [1, NumIntRegs), floating-point registers occupy [FPBase, FPBase+NumFPRegs).
type Reg uint8

// Architectural register file layout.
const (
	// RegZero is the hard-wired zero register; writes to it are discarded
	// and reads from it never create a dependence.
	RegZero Reg = 0
	// NumIntRegs is the number of architectural integer registers
	// (including RegZero).
	NumIntRegs = 32
	// FPBase is the architectural number of the first floating-point
	// register.
	FPBase Reg = 32
	// NumFPRegs is the number of architectural floating-point registers.
	NumFPRegs = 32
	// NumArchRegs is the total architectural register name space.
	NumArchRegs = 64
)

// IsFP reports whether r names a floating-point register.
func (r Reg) IsFP() bool { return r >= FPBase }

// Class identifies the operation class of a dynamic instruction. The class
// determines which functional unit executes the instruction and with what
// latency, and whether the instruction touches memory or redirects fetch.
type Class uint8

// Operation classes.
const (
	// Nop performs no work but still occupies pipeline slots.
	Nop Class = iota
	// IntALU covers single-cycle integer operations (add, logical, shift,
	// compare, address arithmetic).
	IntALU
	// IntMul is integer multiplication.
	IntMul
	// IntDiv is integer division (long latency, unpipelined).
	IntDiv
	// FPAdd covers floating-point add/subtract/compare/convert.
	FPAdd
	// FPMul is floating-point multiplication.
	FPMul
	// FPDiv is floating-point divide/square root (long latency, unpipelined).
	FPDiv
	// Load is a memory read of Size bytes at Addr.
	Load
	// Store is a memory write of Size bytes at Addr.
	Store
	// Branch is a conditional branch; Taken and Target give its outcome.
	Branch
	// Jump is an unconditional direct jump (always taken).
	Jump
	// Call is a subroutine call (pushes a return address).
	Call
	// Return is a subroutine return (pops a return address).
	Return
	// Syscall transfers control into the kernel; the workload generators
	// use it to delimit kernel episodes. It drains the pipeline like a
	// serialising instruction.
	Syscall
	numClasses
)

// NumClasses is the number of distinct operation classes, for sizing
// per-class statistics tables.
const NumClasses = int(numClasses)

var classNames = [NumClasses]string{
	"nop", "int-alu", "int-mul", "int-div",
	"fp-add", "fp-mul", "fp-div",
	"load", "store",
	"branch", "jump", "call", "return", "syscall",
}

// String returns the lower-case mnemonic name of the class.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// IsMem reports whether the class accesses the data memory system.
func (c Class) IsMem() bool { return c == Load || c == Store }

// IsCtrl reports whether the class can redirect instruction fetch.
func (c Class) IsCtrl() bool {
	switch c {
	case Branch, Jump, Call, Return, Syscall:
		return true
	}
	return false
}

// IsUncond reports whether the class always redirects fetch. Conditional
// branches redirect only when taken.
func (c Class) IsUncond() bool {
	switch c {
	case Jump, Call, Return, Syscall:
		return true
	}
	return false
}

// IsFPOp reports whether the class executes on the floating-point pipelines.
func (c Class) IsFPOp() bool { return c == FPAdd || c == FPMul || c == FPDiv }

// Inst is one dynamic (committed-path) instruction. Workload generators emit
// the stream the processor would commit; the timing model replays it,
// modelling speculation by comparing predicted and actual control-flow
// outcomes. Wrong-path instructions are not represented explicitly; their
// cost appears as fetch-redirect penalties.
type Inst struct {
	// PC is the virtual address of the instruction. Instructions are
	// 4 bytes, so sequential execution advances PC by 4.
	PC uint64
	// Addr is the effective virtual address for Load and Store classes;
	// it is meaningless for other classes.
	Addr uint64
	// Target is the destination PC for control-flow classes (for
	// conditional branches, the destination if taken).
	Target uint64
	// Class is the operation class.
	Class Class
	// Dest is the destination register, or RegZero for none.
	Dest Reg
	// Src1 and Src2 are the source registers; RegZero means no dependence.
	Src1, Src2 Reg
	// Size is the memory access size in bytes (1, 2, 4 or 8) for Load and
	// Store classes.
	Size uint8
	// Taken reports the actual outcome of a conditional branch.
	Taken bool
	// Kernel reports that the instruction executed in kernel mode. The
	// statistics layer segregates user and kernel behaviour, following
	// the paper's emphasis on workloads that include the OS.
	Kernel bool
}

// FallThrough returns the PC of the next sequential instruction.
func (in *Inst) FallThrough() uint64 { return in.PC + 4 }

// Redirects reports whether the instruction actually redirected fetch away
// from the fall-through path.
func (in *Inst) Redirects() bool {
	return in.Class.IsUncond() || (in.Class == Branch && in.Taken)
}

// Validate checks internal consistency of the record and returns a
// descriptive error for malformed instructions. It is used by the trace
// reader and by generator tests.
func (in *Inst) Validate() error {
	if int(in.Class) >= NumClasses {
		return fmt.Errorf("isa: invalid class %d", in.Class)
	}
	if in.Dest >= NumArchRegs || in.Src1 >= NumArchRegs || in.Src2 >= NumArchRegs {
		return fmt.Errorf("isa: register out of range in %v", in)
	}
	if in.Class.IsMem() {
		switch in.Size {
		case 1, 2, 4, 8:
		default:
			return fmt.Errorf("isa: memory access size %d invalid", in.Size)
		}
		if in.Addr%uint64(in.Size) != 0 {
			return fmt.Errorf("isa: misaligned %s of %d bytes at %#x", in.Class, in.Size, in.Addr)
		}
	}
	if in.Class == Load && in.Dest == RegZero {
		return fmt.Errorf("isa: load at %#x has no destination", in.PC)
	}
	return nil
}

// String renders a compact human-readable form, used by trace dumps.
func (in *Inst) String() string {
	mode := "u"
	if in.Kernel {
		mode = "k"
	}
	switch {
	case in.Class.IsMem():
		return fmt.Sprintf("%#x[%s] %s r%d,r%d->r%d @%#x/%d", in.PC, mode, in.Class, in.Src1, in.Src2, in.Dest, in.Addr, in.Size)
	case in.Class.IsCtrl():
		t := "nt"
		if in.Redirects() {
			t = "t"
		}
		return fmt.Sprintf("%#x[%s] %s ->%#x (%s)", in.PC, mode, in.Class, in.Target, t)
	default:
		return fmt.Sprintf("%#x[%s] %s r%d,r%d->r%d", in.PC, mode, in.Class, in.Src1, in.Src2, in.Dest)
	}
}
