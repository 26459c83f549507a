package experiments

import (
	"testing"

	"portsim/internal/config"
)

// TestFaultArmedCellsIsolatedFromUnarmed is the -inject isolation
// regression: a fault-armed cell shares its base machine configuration with
// unarmed cells, and what keeps the poison contained is that (a) the memo
// key carries the workload name, computed before arming mutates the config,
// and (b) every cell builds its own core from its own copy of the config.
// If either regressed, the wedge failure below would be served to the
// healthy cell, or the wedge would leak into its result.
func TestFaultArmedCellsIsolatedFromUnarmed(t *testing.T) {
	spec := QuickSpec()
	spec.Parallel = 1
	armedW, cleanW := spec.Workloads[0], spec.Workloads[1]
	spec.Fault = &Fault{Mode: FaultWedge, Workload: armedW}
	r := NewRunner(spec)
	var events []CellEvent
	r.SetCellObserver(func(ev CellEvent) { events = append(events, ev) }, nil)
	m := config.Baseline()

	// Healthy cell first: simulates on a core of its own.
	cleanRes, err := r.Run(m, cleanW)
	if err != nil {
		t.Fatal(err)
	}

	// Armed cell on the SAME base config: must fail (stuck drain trips
	// the watchdog).
	if _, err := r.Run(m, armedW); err == nil {
		t.Fatal("wedge-armed cell unexpectedly succeeded")
	}

	// Re-running both cells must memo-join their own prior outcome, never
	// cross: the armed key differs from the clean key by workload name
	// even though the base config JSON is identical.
	if _, err := r.Run(m, armedW); err == nil {
		t.Fatal("armed rerun lost its memoised failure")
	}
	again, err := r.Run(m, cleanW)
	if err != nil {
		t.Fatalf("clean rerun poisoned by armed cell: %v", err)
	}
	if again != cleanRes {
		t.Fatal("clean rerun did not memo-join its own result")
	}
	for _, ev := range events[2:] {
		if !ev.MemoHit {
			t.Fatalf("rerun of %s re-simulated instead of memo-joining", ev.Workload)
		}
	}
	for _, ev := range events {
		if ev.Workload == armedW && ev.Err == nil {
			t.Fatalf("armed cell %s reported success", armedW)
		}
		if ev.Workload == cleanW && ev.Err != nil {
			t.Fatalf("clean cell %s reported failure: %v", cleanW, ev.Err)
		}
	}

	// The healthy result must be bit-identical to a fault-free runner's:
	// arming one workload may not perturb any other cell.
	ref := NewRunner(QuickSpec())
	want, err := ref.Run(m, cleanW)
	if err != nil {
		t.Fatal(err)
	}
	if cleanRes.Cycles != want.Cycles || cleanRes.Instructions != want.Instructions ||
		cleanRes.Counters.String() != want.Counters.String() {
		t.Fatalf("clean cell perturbed by fault arming: got %d cycles / %d insts, want %d / %d",
			cleanRes.Cycles, cleanRes.Instructions, want.Cycles, want.Instructions)
	}
}
