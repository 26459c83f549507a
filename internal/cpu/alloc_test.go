package cpu

import (
	"testing"

	"portsim/internal/config"
	"portsim/internal/diag"
	"portsim/internal/workload"
)

// allocTestChunk is the input ring's chunk length in the zero-alloc
// proofs: short enough that every measured window crosses many chunk
// boundaries.
const allocTestChunk = 64

// requireChunkSwitches fails the test unless fetch has moved through
// several input chunks since sequence number before, so a zero-alloc
// verdict covers chunk hand-overs.
func requireChunkSwitches(t *testing.T, c *Core, before uint64) {
	t.Helper()
	if got := c.seq - before; got < 4*allocTestChunk {
		t.Errorf("measured window fetched %d instructions, fewer than four %d-instruction chunks", got, allocTestChunk)
	}
}

// startInput starts c's input producer as Run does, for tests that drive
// step directly, and stops it when the test ends.
func startInput(t *testing.T, c *Core) {
	t.Helper()
	c.in.Start()
	t.Cleanup(c.in.Stop)
}

// TestStepDoesNotAllocate is the tentpole's regression guard: once the
// pipeline is warm, advancing the machine one cycle must not touch the heap.
// step() is the tightest steppable unit — Run is a loop around it — so a
// zero here means the whole steady-state cycle loop is allocation-free. The
// warm-up phase absorbs one-time growth (MSHR slices, store-buffer scratch)
// that is amortised, not steady-state. The generator reaches fetch through
// the input ring, so the measured cycles include chunk hand-overs.
func TestStepDoesNotAllocate(t *testing.T) {
	for _, m := range []config.Machine{config.Baseline(), config.BestSingle()} {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			g, err := workload.New(mustProfile(t, "compress"), 42)
			if err != nil {
				t.Fatal(err)
			}
			c, err := newCore(&m, g, allocTestChunk)
			if err != nil {
				t.Fatal(err)
			}
			startInput(t, c)
			// The generator never ends, so the machine cannot drain
			// mid-measurement.
			for i := 0; i < 20_000; i++ {
				c.step()
			}
			before := c.seq
			if avg := testing.AllocsPerRun(2000, c.step); avg != 0 {
				t.Errorf("step allocates %v objects/cycle in steady state; want 0", avg)
			}
			requireChunkSwitches(t, c, before)
		})
	}
}

// TestStepDoesNotAllocateWithRecorder extends the guard to the telemetry
// path: the hot loop must stay allocation-free both with the flight
// recorder disabled (nil — the default when no telemetry flag is set;
// every Record call nil-checks and returns) and with a deep trace ring
// armed, where Record writes events into pre-allocated storage. Together
// with TestStepDoesNotAllocate this proves -trace-out costs the cycle
// loop nothing but the ring writes, and costs it literally nothing when
// off.
func TestStepDoesNotAllocateWithRecorder(t *testing.T) {
	for _, depth := range []int{0, 1 << 16} {
		m := config.BestSingle()
		name := "armed"
		if depth == 0 {
			name = "nil"
		}
		t.Run(name, func(t *testing.T) {
			g, err := workload.New(mustProfile(t, "compress"), 42)
			if err != nil {
				t.Fatal(err)
			}
			c, err := newCore(&m, g, allocTestChunk)
			if err != nil {
				t.Fatal(err)
			}
			startInput(t, c)
			var rec *diag.Recorder
			if depth > 0 {
				rec = diag.NewRecorder(depth)
			}
			c.rec = rec
			c.port.SetRecorder(rec)
			for i := 0; i < 20_000; i++ {
				c.step()
			}
			before := c.seq
			if avg := testing.AllocsPerRun(2000, c.step); avg != 0 {
				t.Errorf("step with %s recorder allocates %v objects/cycle; want 0", name, avg)
			}
			requireChunkSwitches(t, c, before)
			if depth > 0 && rec.Len() == 0 {
				t.Error("armed recorder captured no events")
			}
		})
	}
}
