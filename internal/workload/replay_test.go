package workload

import (
	"fmt"
	"testing"

	"portsim/internal/isa"
	"portsim/internal/trace"
)

// TestArenaCursorMatchesGenerator is the golden identity behind the shared
// trace arenas: for every profile, across seeds and materialisation
// budgets, a cursor over trace.Materialize(New(prof, seed)) must replay
// instruction-for-instruction what a fresh generator produces. This is the
// property that lets a sweep generate each (profile, seed) trace once and
// replay it per cell without perturbing a single emitted number.
func TestArenaCursorMatchesGenerator(t *testing.T) {
	for _, name := range Names() {
		for _, seed := range []int64{1, 42, 987654321} {
			for _, n := range []int{1_000, 20_000} {
				prof, ok := ByName(name)
				if !ok {
					t.Fatalf("workload %q vanished", name)
				}
				src, err := New(prof, seed)
				if err != nil {
					t.Fatalf("New(%s, %d): %v", name, seed, err)
				}
				a := trace.Materialize(src, n)
				if a.Len() != n {
					t.Fatalf("%s/%d: materialised %d instructions, want %d", name, seed, a.Len(), n)
				}
				ref, err := New(prof, seed)
				if err != nil {
					t.Fatalf("New(%s, %d): %v", name, seed, err)
				}
				cur := a.NewCursor()
				var want, got isa.Inst
				for i := 0; i < n; i++ {
					if !ref.Next(&want) {
						t.Fatalf("%s/%d: generator exhausted at %d", name, seed, i)
					}
					if !cur.Next(&got) {
						t.Fatalf("%s/%d: cursor exhausted at %d", name, seed, i)
					}
					if want != got {
						t.Fatalf("%s/%d/n=%d: instruction %d diverged:\n live   %+v\n replay %+v",
							name, seed, n, i, want, got)
					}
				}
			}
		}
	}
}

// TestMultiprogramReplayIdentity pins the multiprogram interleave contract:
// replaying per-process arena cursors through NewMultiprogramReplay — the
// quantum schedule, the injected context-switch markers, the address-space
// relocation — produces the identical stream to the live NewMultiprogram
// generators, for every multiprogramming level the A6 experiment runs.
func TestMultiprogramReplayIdentity(t *testing.T) {
	const n = 30_000
	prof, ok := ByName("compress")
	if !ok {
		t.Fatal("compress workload missing")
	}
	for _, procs := range []int{1, 2, 4, 8} {
		for _, quantum := range []int{500, 5_000} {
			t.Run(fmt.Sprintf("procs=%d/quantum=%d", procs, quantum), func(t *testing.T) {
				live, err := NewMultiprogram(prof, procs, quantum, 42)
				if err != nil {
					t.Fatalf("NewMultiprogram: %v", err)
				}
				// Each per-process trace needs at most n instructions; the
				// interleaver never pulls more than it emits.
				cursors := make([]*trace.Cursor, procs)
				for i := range cursors {
					gen, err := New(prof, 42+int64(i)*SeedStride)
					if err != nil {
						t.Fatalf("New: %v", err)
					}
					cursors[i] = trace.Materialize(gen, n).NewCursor()
				}
				replay, err := NewMultiprogramReplay(cursors, quantum, 42)
				if err != nil {
					t.Fatalf("NewMultiprogramReplay: %v", err)
				}
				var want, got isa.Inst
				for i := 0; i < n; i++ {
					if !live.Next(&want) {
						t.Fatalf("live stream exhausted at %d", i)
					}
					if !replay.Next(&got) {
						t.Fatalf("replay exhausted at %d", i)
					}
					if want != got {
						t.Fatalf("instruction %d diverged:\n live   %+v\n replay %+v", i, want, got)
					}
				}
			})
		}
	}
}

// TestMultiprogramReplayEndsCleanly: a replay over finite cursors must
// report exhaustion (Next false, short NextBatch) instead of emitting
// garbage when the current process's trace runs dry.
func TestMultiprogramReplayEndsCleanly(t *testing.T) {
	prof, ok := ByName("compress")
	if !ok {
		t.Fatal("compress workload missing")
	}
	gen, err := New(prof, 7)
	if err != nil {
		t.Fatal(err)
	}
	cur := trace.Materialize(gen, 500).NewCursor()
	replay, err := NewMultiprogramReplay([]*trace.Cursor{cur}, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]isa.Inst, 600)
	if got := replay.NextBatch(buf); got != 500 {
		t.Fatalf("NextBatch over a 500-instruction replay returned %d", got)
	}
	var in isa.Inst
	if replay.Next(&in) {
		t.Fatal("Next returned true past exhaustion")
	}
}
