package trace

import "portsim/internal/isa"

// An Arena is an immutable, materialised dynamic instruction trace in
// struct-of-arrays layout. Sweeps that vary only the machine axis replay
// one arena through many Cursors instead of re-running the workload
// generator per cell, and the packed metadata lets the core's fetch stage
// reduce its per-instruction control tests to mask/flag operations.
//
// Every stored word is machine-independent: PCs, addresses, targets and
// register names come straight from the generator, and the metadata byte
// only restates properties of the instruction itself (its class kind, and
// whether the committed path redirects at it — isa.Inst.Redirects, which
// depends on the class and the trace's taken bit, never on predictor or
// cache state). Nothing in an arena encodes a fetch width, a line size or
// a predictor decision, so one arena serves every machine configuration.
//
// Arenas are append-once: Materialize fills one and nothing mutates it
// afterwards, so any number of Cursors — across goroutines — may read it
// concurrently without synchronisation. The one exception is a Feed's
// ring, whose chunk arenas its producer refills only after the single
// consumer has handed them back.
type Arena struct {
	pc     []uint64
	addr   []uint64
	target []uint64
	class  []uint8
	dest   []uint8
	src1   []uint8
	src2   []uint8
	size   []uint8
	meta   []uint8
}

// Metadata flag bits, one byte per instruction. MetaRedirect is the
// precomputed isa.Inst.Redirects bit: the committed path leaves the
// fall-through at this instruction (unconditional control, or a taken
// branch).
const (
	MetaTaken    = 1 << 0
	MetaKernel   = 1 << 1
	MetaMem      = 1 << 2
	MetaCtrl     = 1 << 3
	MetaRedirect = 1 << 4
)

// BytesPerInst is the arena storage cost per instruction: three 64-bit
// words (pc, addr, target) plus six bytes (class, three registers, size,
// metadata). Byte budgets divide by this.
const BytesPerInst = 3*8 + 6

// Materialize drains up to n instructions from s into a new arena, using
// the stream's batch interface when it has one. A shorter arena means the
// stream ended early.
func Materialize(s Stream, n int) *Arena {
	a := &Arena{
		pc:     make([]uint64, 0, n),
		addr:   make([]uint64, 0, n),
		target: make([]uint64, 0, n),
		class:  make([]uint8, 0, n),
		dest:   make([]uint8, 0, n),
		src1:   make([]uint8, 0, n),
		src2:   make([]uint8, 0, n),
		size:   make([]uint8, 0, n),
		meta:   make([]uint8, 0, n),
	}
	if b, ok := s.(Batcher); ok {
		var buf [128]isa.Inst
		for len(a.pc) < n {
			want := n - len(a.pc)
			if want > len(buf) {
				want = len(buf)
			}
			got := b.NextBatch(buf[:want])
			for i := 0; i < got; i++ {
				a.push(&buf[i])
			}
			if got < want {
				break
			}
		}
		return a
	}
	var in isa.Inst
	for len(a.pc) < n && s.Next(&in) {
		a.push(&in)
	}
	return a
}

// push appends one instruction.
func (a *Arena) push(in *isa.Inst) {
	var m uint8
	if in.Taken {
		m |= MetaTaken
	}
	if in.Kernel {
		m |= MetaKernel
	}
	if in.Class.IsMem() {
		m |= MetaMem
	}
	if in.Class.IsCtrl() {
		m |= MetaCtrl
	}
	if in.Redirects() {
		m |= MetaRedirect
	}
	a.pc = append(a.pc, in.PC)
	a.addr = append(a.addr, in.Addr)
	a.target = append(a.target, in.Target)
	a.class = append(a.class, uint8(in.Class))
	a.dest = append(a.dest, uint8(in.Dest))
	a.src1 = append(a.src1, uint8(in.Src1))
	a.src2 = append(a.src2, uint8(in.Src2))
	a.size = append(a.size, in.Size)
	a.meta = append(a.meta, m)
}

// truncate empties the arena, keeping its storage for a refill.
func (a *Arena) truncate() {
	a.pc, a.addr, a.target = a.pc[:0], a.addr[:0], a.target[:0]
	a.class, a.dest, a.src1, a.src2 = a.class[:0], a.dest[:0], a.src1[:0], a.src2[:0]
	a.size, a.meta = a.size[:0], a.meta[:0]
}

// appendRange appends instructions [lo, hi) of src.
func (a *Arena) appendRange(src *Arena, lo, hi int) {
	a.pc = append(a.pc, src.pc[lo:hi]...)
	a.addr = append(a.addr, src.addr[lo:hi]...)
	a.target = append(a.target, src.target[lo:hi]...)
	a.class = append(a.class, src.class[lo:hi]...)
	a.dest = append(a.dest, src.dest[lo:hi]...)
	a.src1 = append(a.src1, src.src1[lo:hi]...)
	a.src2 = append(a.src2, src.src2[lo:hi]...)
	a.size = append(a.size, src.size[lo:hi]...)
	a.meta = append(a.meta, src.meta[lo:hi]...)
}

// Len returns the number of instructions held.
func (a *Arena) Len() int { return len(a.pc) }

// PCs exposes the packed instruction addresses.
//
//portlint:hotpath
func (a *Arena) PCs() []uint64 { return a.pc }

// Targets exposes the packed control-transfer targets (zero for non-control
// instructions).
//
//portlint:hotpath
func (a *Arena) Targets() []uint64 { return a.target }

// Classes exposes the packed instruction classes as raw bytes.
//
//portlint:hotpath
func (a *Arena) Classes() []uint8 { return a.class }

// Meta exposes the packed per-instruction metadata flag bytes.
//
//portlint:hotpath
func (a *Arena) Meta() []uint8 { return a.meta }

// Inst decodes instruction i into in, exactly as the originating stream
// produced it.
//
//portlint:hotpath
func (a *Arena) Inst(i int, in *isa.Inst) {
	m := a.meta[i]
	in.PC = a.pc[i]
	in.Addr = a.addr[i]
	in.Target = a.target[i]
	in.Class = isa.Class(a.class[i])
	in.Dest = isa.Reg(a.dest[i])
	in.Src1 = isa.Reg(a.src1[i])
	in.Src2 = isa.Reg(a.src2[i])
	in.Size = a.size[i]
	in.Taken = m&MetaTaken != 0
	in.Kernel = m&MetaKernel != 0
}

// NewCursor returns a fresh replay position over the arena. Cursors are
// cheap; one arena serves any number of them concurrently.
func (a *Arena) NewCursor() *Cursor { return &Cursor{a: a} }

// Cursor replays an arena from the beginning. It implements Stream and
// Batcher with zero allocations; a Feed over a cursor also reads the
// packed arrays directly, so the core's fetch stage advances it in whole
// fetch groups.
type Cursor struct {
	a   *Arena
	pos int
}

// Next implements Stream.
//
//portlint:hotpath
func (c *Cursor) Next(in *isa.Inst) bool {
	if c.pos >= len(c.a.pc) {
		return false
	}
	c.a.Inst(c.pos, in)
	c.pos++
	return true
}

// NextBatch implements Batcher.
//
//portlint:hotpath
func (c *Cursor) NextBatch(dst []isa.Inst) int {
	n := len(c.a.pc) - c.pos
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		c.a.Inst(c.pos+i, &dst[i])
	}
	c.pos += n
	return n
}
