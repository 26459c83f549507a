package cpu

import (
	"testing"

	"portsim/internal/config"
	"portsim/internal/trace"
	"portsim/internal/workload"
)

// arenaFor materialises insts instructions of a (profile, seed) trace, as
// the runner does: the core never reads past its instruction budget, so
// the cursor is indistinguishable from the endless generator.
func arenaFor(t *testing.T, name string, seed int64, insts uint64) *trace.Arena {
	t.Helper()
	gen, err := workload.New(mustProfile(t, name), seed)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Materialize(gen, int(insts))
}

// TestRunCursorMatchesGenerator is the core-level byte-identity guarantee
// between the two ways a stream reaches fetch: a whole arena read through
// a cursor, and a live generator drained into the input ring's chunk
// arenas by the producer goroutine. Both must produce the identical
// Result, counter for counter. Covered machines include the
// wrong-path-fetch model (whose stall-time I-cache pollution depends on
// exact group endings).
func TestRunCursorMatchesGenerator(t *testing.T) {
	const insts = 15_000
	wrongPath := config.Baseline()
	wrongPath.Name = "wrong-path"
	wrongPath.Core.WrongPathFetch = true
	machines := []config.Machine{config.Baseline(), config.BestSingle(), config.DualPort(), wrongPath}
	for _, m := range machines {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			for _, wl := range []string{"compress", "database"} {
				gen, err := workload.New(mustProfile(t, wl), 42)
				if err != nil {
					t.Fatal(err)
				}
				opts := Options{
					MaxInstructions: insts,
					DeadlineCycles:  DeadlineFor(insts),
					StallCycles:     DefaultStallCycles,
				}
				liveCore, err := New(&m, gen)
				if err != nil {
					t.Fatal(err)
				}
				live, err := liveCore.Run(opts)
				if err != nil {
					t.Fatal(err)
				}
				cursorCore, err := New(&m, arenaFor(t, wl, 42, insts).NewCursor())
				if err != nil {
					t.Fatal(err)
				}
				replay, err := cursorCore.Run(opts)
				if err != nil {
					t.Fatal(err)
				}
				compareResults(t, wl, live, replay)
			}
		})
	}
}

// compareResults demands exact equality of every reported number.
func compareResults(t *testing.T, what string, live, replay *Result) {
	t.Helper()
	type pair struct {
		name       string
		live, repl uint64
	}
	pairs := []pair{
		{"cycles", live.Cycles, replay.Cycles},
		{"instructions", live.Instructions, replay.Instructions},
		{"user insts", live.UserInsts, replay.UserInsts},
		{"kernel insts", live.KernelInsts, replay.KernelInsts},
		{"loads", live.Loads, replay.Loads},
		{"stores", live.Stores, replay.Stores},
		{"branches", live.Branches, replay.Branches},
		{"mispredicts", live.Mispredicts, replay.Mispredicts},
	}
	for _, p := range pairs {
		if p.live != p.repl {
			t.Errorf("%s: %s diverged: live %d, arena replay %d", what, p.name, p.live, p.repl)
		}
	}
	if live.IPC != replay.IPC {
		t.Errorf("%s: IPC diverged: live %v, arena replay %v", what, live.IPC, replay.IPC)
	}
	liveNames := live.Counters.Names()
	replNames := replay.Counters.Names()
	if len(liveNames) != len(replNames) {
		t.Fatalf("%s: counter sets differ: live %v, arena replay %v", what, liveNames, replNames)
	}
	for i, name := range liveNames {
		if replNames[i] != name {
			t.Fatalf("%s: counter order diverged at %d: live %q, arena replay %q", what, i, name, replNames[i])
		}
		lv := live.Counters.Get(name)   //portlint:ignore counterhygiene name ranges over Counters.Names()
		rv := replay.Counters.Get(name) //portlint:ignore counterhygiene name ranges over Counters.Names()
		if lv != rv {
			t.Errorf("%s: counter %s diverged: live %d, arena replay %d", what, name, lv, rv)
		}
	}
}

// TestResetCursorMatchesFresh extends the pooling contract to the arena
// path: a core built for a live generator and reset onto a cursor must
// behave exactly like a core constructed fresh on that cursor, and vice
// versa — cells of either stream kind share one pool.
func TestResetCursorMatchesFresh(t *testing.T) {
	const insts = 8_000
	m := config.Baseline()
	a := arenaFor(t, "compress", 42, insts)
	opts := Options{MaxInstructions: insts, DeadlineCycles: DeadlineFor(insts), StallCycles: DefaultStallCycles}

	fresh, err := New(&m, a.NewCursor())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(opts)
	if err != nil {
		t.Fatal(err)
	}

	gen, err := workload.New(mustProfile(t, "eqntott"), 7)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := New(&m, gen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pooled.Run(opts); err != nil {
		t.Fatal(err)
	}
	if err := pooled.Reset(a.NewCursor()); err != nil {
		t.Fatal(err)
	}
	got, err := pooled.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "reset-to-cursor", want, got)

	// And back: a cursor-born core reset onto a live generator must match a
	// generator-fresh core.
	gen2, err := workload.New(mustProfile(t, "compress"), 42)
	if err != nil {
		t.Fatal(err)
	}
	genFresh, err := New(&m, gen2)
	if err != nil {
		t.Fatal(err)
	}
	wantGen, err := genFresh.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	gen3, err := workload.New(mustProfile(t, "compress"), 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Reset(gen3); err != nil {
		t.Fatal(err)
	}
	gotGen, err := fresh.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "reset-to-generator", wantGen, gotGen)
}

// TestStepDoesNotAllocateWithCursor is the zero-alloc proof for a
// whole-arena input: steady-state cycles fetching whole groups from an
// arena cursor never touch the heap.
func TestStepDoesNotAllocateWithCursor(t *testing.T) {
	for _, m := range []config.Machine{config.Baseline(), config.BestSingle()} {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			gen, err := workload.New(mustProfile(t, "compress"), 42)
			if err != nil {
				t.Fatal(err)
			}
			a := trace.Materialize(gen, 400_000)
			c, err := New(&m, a.NewCursor())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20_000; i++ {
				c.step()
			}
			if avg := testing.AllocsPerRun(2000, c.step); avg != 0 {
				t.Errorf("step with arena cursor allocates %v objects/cycle; want 0", avg)
			}
		})
	}
}
