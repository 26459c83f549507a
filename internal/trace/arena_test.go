package trace

import (
	"testing"

	"portsim/internal/isa"
)

var _ Batcher = (*Cursor)(nil)

// arenaTestProgram builds a varied synthetic trace: every class kind,
// taken and not-taken branches, kernel episodes, memory operations with
// sizes — enough to exercise every metadata bit.
func arenaTestProgram(n int) []isa.Inst {
	insts := make([]isa.Inst, 0, n)
	pc := uint64(0x40_0000)
	for i := 0; len(insts) < n; i++ {
		var in isa.Inst
		switch i % 11 {
		case 0:
			in = isa.Inst{PC: pc, Class: isa.IntALU, Dest: 3, Src1: 4, Src2: 5}
		case 1:
			in = isa.Inst{PC: pc, Class: isa.Load, Dest: 6, Src1: 3, Addr: 0x1000 + uint64(i)*8, Size: 8}
		case 2:
			in = isa.Inst{PC: pc, Class: isa.Store, Src1: 6, Src2: 3, Addr: 0x2000 + uint64(i)*4, Size: 4}
		case 3:
			in = isa.Inst{PC: pc, Class: isa.Branch, Src1: 6, Taken: i%2 == 0, Target: pc + 64}
		case 4:
			in = isa.Inst{PC: pc, Class: isa.FPAdd, Dest: 40, Src1: 41, Src2: 42}
		case 5:
			in = isa.Inst{PC: pc, Class: isa.Jump, Target: pc + 128}
		case 6:
			in = isa.Inst{PC: pc, Class: isa.Call, Target: pc + 256}
		case 7:
			in = isa.Inst{PC: pc, Class: isa.Return, Target: pc - 512}
		case 8:
			in = isa.Inst{PC: pc, Class: isa.Syscall, Target: 0x8000_0000}
		case 9:
			in = isa.Inst{PC: pc, Class: isa.Load, Dest: 7, Src1: 8, Addr: 0x9000, Size: 4, Kernel: true}
		case 10:
			in = isa.Inst{PC: pc, Class: isa.IntMul, Dest: 9, Src1: 10, Src2: 11}
		}
		insts = append(insts, in)
		if in.Redirects() {
			pc = in.Target
		} else {
			pc = in.FallThrough()
		}
	}
	return insts
}

// TestArenaReplayMatchesSource is the arena's core contract: a cursor over
// a materialised stream replays instruction-for-instruction what the
// source stream produced, via Next and via NextBatch in awkward chunk
// sizes, and the precomputed metadata bits restate the instruction's own
// properties exactly.
func TestArenaReplayMatchesSource(t *testing.T) {
	const n = 5_000
	want := arenaTestProgram(n)
	a := Materialize(NewSliceStream(want), n)
	if a.Len() != n {
		t.Fatalf("Len = %d, want %d", a.Len(), n)
	}

	cur := a.NewCursor()
	var got isa.Inst
	for i := range want {
		if !cur.Next(&got) {
			t.Fatalf("cursor exhausted at %d", i)
		}
		if got != want[i] {
			t.Fatalf("instruction %d diverged:\n source %+v\n replay %+v", i, want[i], got)
		}
	}
	if cur.Next(&got) {
		t.Fatal("cursor yielded past the arena's end")
	}

	meta := a.Meta()
	for i := range want {
		in := &want[i]
		checks := []struct {
			name string
			bit  uint8
			want bool
		}{
			{"taken", MetaTaken, in.Taken},
			{"kernel", MetaKernel, in.Kernel},
			{"mem", MetaMem, in.Class.IsMem()},
			{"ctrl", MetaCtrl, in.Class.IsCtrl()},
			{"redirect", MetaRedirect, in.Redirects()},
		}
		for _, c := range checks {
			if got := meta[i]&c.bit != 0; got != c.want {
				t.Fatalf("instruction %d meta %s = %v, want %v", i, c.name, got, c.want)
			}
		}
	}

	batched := a.NewCursor()
	chunks := []int{1, 3, 7, 64, 128, 1000}
	var replay []isa.Inst
	for i := 0; len(replay) < n; i++ {
		buf := make([]isa.Inst, chunks[i%len(chunks)])
		k := batched.NextBatch(buf)
		replay = append(replay, buf[:k]...)
		if k < len(buf) {
			break
		}
	}
	if len(replay) != n {
		t.Fatalf("NextBatch drained %d instructions, want %d", len(replay), n)
	}
	for i := range want {
		if replay[i] != want[i] {
			t.Fatalf("batched instruction %d diverged", i)
		}
	}
}

// TestMaterializeBounds covers truncation (n smaller than the stream) and
// early stream exhaustion (n larger).
func TestMaterializeBounds(t *testing.T) {
	prog := arenaTestProgram(300)
	if got := Materialize(NewSliceStream(prog), 100).Len(); got != 100 {
		t.Errorf("truncating Materialize kept %d instructions, want 100", got)
	}
	if got := Materialize(NewSliceStream(prog), 1000).Len(); got != 300 {
		t.Errorf("over-asking Materialize kept %d instructions, want 300", got)
	}
	// The batch path must land on identical contents.
	sliced := Materialize(NewSliceStream(prog), 300)
	var in isa.Inst
	cur := sliced.NewCursor()
	for i := 0; cur.Next(&in); i++ {
		if in != prog[i] {
			t.Fatalf("instruction %d diverged through the non-batch path", i)
		}
	}
}

// TestCursorDoesNotAllocate is the zero-alloc proof for the replay path:
// once the arena exists, streaming from it — scalar, batched, or via the
// direct decode the core's fetch stage uses — never touches the heap.
func TestCursorDoesNotAllocate(t *testing.T) {
	a := Materialize(NewSliceStream(arenaTestProgram(4096)), 4096)
	cur := a.NewCursor()
	var in isa.Inst
	if avg := testing.AllocsPerRun(1000, func() {
		if !cur.Next(&in) {
			cur = a.NewCursor()
		}
	}); avg != 0 {
		t.Errorf("Cursor.Next allocates %v objects/call; want 0", avg)
	}
	buf := make([]isa.Inst, 64)
	bcur := a.NewCursor()
	if avg := testing.AllocsPerRun(1000, func() {
		if bcur.NextBatch(buf) < len(buf) {
			bcur = a.NewCursor()
		}
	}); avg != 0 {
		t.Errorf("Cursor.NextBatch allocates %v objects/call; want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { a.Inst(17, &in) }); avg != 0 {
		t.Errorf("Arena.Inst allocates %v objects/call; want 0", avg)
	}
}
