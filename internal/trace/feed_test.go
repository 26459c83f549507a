package trace

import (
	"fmt"
	"runtime"
	"testing"

	"portsim/internal/isa"
)

// batchOnly exposes a SliceStream through the Batcher interface, so the
// producer drains it in batches.
type batchOnly struct{ *SliceStream }

func (b batchOnly) NextBatch(dst []isa.Inst) int {
	for i := range dst {
		if !b.Next(&dst[i]) {
			return i
		}
	}
	return len(dst)
}

// drainFeed reads every instruction the feed delivers, advancing by step
// at a time, and checks the lookahead promise at every position: the
// window holds lookahead+1 instructions unless the stream ends inside it.
func drainFeed(t *testing.T, f *Feed, total, lookahead, step int) []isa.Inst {
	t.Helper()
	var out []isa.Inst
	for {
		a, pos := f.Window()
		rem := a.Len() - pos
		if rem < lookahead+1 && len(out)+rem != total {
			t.Fatalf("at instruction %d the window holds %d, want %d", len(out), rem, lookahead+1)
		}
		if rem == 0 {
			return out
		}
		n := min(step, rem)
		for i := 0; i < n; i++ {
			var in isa.Inst
			a.Inst(pos+i, &in)
			out = append(out, in)
		}
		f.Advance(n)
	}
}

// TestFeedDeliversSourceInOrder checks that the ring delivers exactly the
// source's instructions, in order, whatever the chunk length, lookahead,
// consumer step and source interface.
func TestFeedDeliversSourceInOrder(t *testing.T) {
	const total = 1_000
	want := arenaTestProgram(total)
	for _, chunk := range []int{1, 3, 7, 64, 0} {
		for _, lookahead := range []int{0, 3, 7} {
			for _, step := range []int{1, lookahead + 1} {
				for _, batched := range []bool{false, true} {
					name := fmt.Sprintf("chunk%d/look%d/step%d/batched=%v", chunk, lookahead, step, batched)
					var src Stream = NewSliceStream(want)
					if batched {
						src = batchOnly{NewSliceStream(want)}
					}
					f := NewFeed(lookahead, chunk)
					f.Reset(src)
					f.Start()
					got := drainFeed(t, f, total, lookahead, step)
					f.Stop()
					if len(got) != total {
						t.Fatalf("%s: delivered %d instructions, want %d", name, len(got), total)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: instruction %d = %+v, want %+v", name, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestFeedWholeArenaStartsNothing checks that a cursor is delivered as it
// is: no goroutine, no ring, and the cursor itself advances.
func TestFeedWholeArenaStartsNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	cur := Materialize(NewSliceStream(arenaTestProgram(100)), 100).NewCursor()
	f := NewFeed(3, 0)
	f.Reset(cur)
	f.Start()
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Start over a cursor, want at most %d", n, base)
	}
	if f.ring != nil {
		t.Error("Start over a cursor allocated a ring")
	}
	f.Advance(40)
	if cur.pos != 40 {
		t.Errorf("cursor at %d after Advance(40), want 40", cur.pos)
	}
	f.Stop()
}

// TestFeedReusesRingAndResumes checks the lifecycle: the ring survives
// Reset, a Stop mid-stream loses nothing, and a Reset discards the old
// source's leftovers.
func TestFeedReusesRingAndResumes(t *testing.T) {
	prog := arenaTestProgram(500)
	f := NewFeed(3, 16)
	if f.ring != nil {
		t.Fatal("NewFeed allocated a ring")
	}
	f.Reset(NewSliceStream(prog))
	f.Start()
	ring := &f.ring[0]
	var got []isa.Inst
	for len(got) < 100 {
		a, pos := f.Window()
		var in isa.Inst
		a.Inst(pos, &in)
		got = append(got, in)
		f.Advance(1)
	}
	f.Stop()
	f.Start()
	got = append(got, drainFeed(t, f, 400, 3, 2)...)
	f.Stop()
	for i := range prog {
		if got[i] != prog[i] {
			t.Fatalf("resumed stream diverged at %d", i)
		}
	}

	other := arenaTestProgram(50)
	for i := range other {
		other[i].PC += 1 << 20
	}
	f.Reset(NewSliceStream(other))
	f.Start()
	if &f.ring[0] != ring {
		t.Error("Reset+Start allocated a new ring")
	}
	a, pos := f.Window()
	var first isa.Inst
	a.Inst(pos, &first)
	f.Stop()
	if first != other[0] {
		t.Errorf("after Reset the feed delivered %+v, want the new source's first %+v", first, other[0])
	}
}

// TestFeedForwardsSourcePanic checks that a source panic is held on the
// producer and raised by Fault, with the instructions before it delivered.
func TestFeedForwardsSourcePanic(t *testing.T) {
	prog := arenaTestProgram(30)
	f := NewFeed(3, 8)
	f.Reset(&explodeAfter{NewSliceStream(prog), 20})
	f.Start()
	defer f.Stop()
	got := drainFeed(t, f, 20, 3, 1)
	if len(got) != 20 {
		t.Fatalf("delivered %d instructions before the panic, want 20", len(got))
	}
	defer func() {
		if p := recover(); p == nil || fmt.Sprint(p) != "boom" {
			t.Errorf("Fault raised %v, want the source's boom", p)
		}
	}()
	f.Fault()
	t.Error("Fault returned at a panicked stream's end")
}

// explodeAfter delivers n instructions, then panics.
type explodeAfter struct {
	inner Stream
	n     int
}

func (s *explodeAfter) Next(in *isa.Inst) bool {
	if s.n == 0 {
		panic("boom")
	}
	s.n--
	return s.inner.Next(in)
}
