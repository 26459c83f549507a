package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"portsim/internal/cellstore"
	"portsim/internal/config"
	"portsim/internal/cpu"
	"portsim/internal/workload"
)

// storeSpec is QuickSpec over a durable store in dir.
func storeSpec(t *testing.T, dir string) (Spec, *cellstore.Store) {
	t.Helper()
	st, err := cellstore.Open(dir, cellstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := QuickSpec()
	spec.Store = st
	return spec, st
}

// sameResult asserts two results are identical including the full counter
// set in creation order — the byte-identity contract behind restored cells.
func sameResult(t *testing.T, got, want *cpu.Result) {
	t.Helper()
	if got.Cycles != want.Cycles || got.Instructions != want.Instructions ||
		got.UserInsts != want.UserInsts || got.KernelInsts != want.KernelInsts ||
		got.Loads != want.Loads || got.Stores != want.Stores ||
		got.Branches != want.Branches || got.Mispredicts != want.Mispredicts {
		t.Fatalf("scalar mismatch: got %+v want %+v", got, want)
	}
	if got.IPC != want.IPC { //portlint:ignore floatcmp restored IPC must be bit-identical, not approximately equal
		t.Fatalf("IPC mismatch: got %v want %v", got.IPC, want.IPC)
	}
	gn, wn := got.Counters.Names(), want.Counters.Names()
	if !reflect.DeepEqual(gn, wn) {
		t.Fatalf("counter names (order included) differ:\ngot  %v\nwant %v", gn, wn)
	}
	for _, name := range wn {
		if got.Counters.Get(name) != want.Counters.Get(name) {
			t.Fatalf("counter %s: got %d want %d", name, got.Counters.Get(name), want.Counters.Get(name))
		}
	}
}

// TestStoreColdWarmOffIdentical runs the same cell with no store, a cold
// store and a warm store and asserts all three results are identical — the
// core byte-identity contract — and that the warm run simulated nothing.
func TestStoreColdWarmOffIdentical(t *testing.T) {
	dir := t.TempDir()
	off, err := NewRunner(QuickSpec()).Run(config.Baseline(), "compress")
	if err != nil {
		t.Fatal(err)
	}

	spec, st := storeSpec(t, dir)
	cold := NewRunner(spec)
	res, err := cold.Run(config.Baseline(), "compress")
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, off)
	if s := st.Stats(); s.Misses != 1 || s.Puts != 1 || s.Hits != 0 {
		t.Fatalf("cold store stats = %+v, want 1 miss, 1 put", s)
	}

	spec2, st2 := storeSpec(t, dir)
	warm := NewRunner(spec2)
	res2, err := warm.Run(config.Baseline(), "compress")
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res2, off)
	if warm.SimulatedCycles() != 0 {
		t.Fatalf("warm run simulated %d cycles, want 0", warm.SimulatedCycles())
	}
	if s := st2.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("warm store stats = %+v, want 1 hit", s)
	}
}

// TestStoreHitEmitsCellEvent asserts restored cells reach the telemetry
// observer with StoreHit set (they bypass runStream's observer defer) and
// that memo waiters on the same runner still report MemoHit.
func TestStoreHitEmitsCellEvent(t *testing.T) {
	dir := t.TempDir()
	spec, _ := storeSpec(t, dir)
	if _, err := NewRunner(spec).Run(config.Baseline(), "compress"); err != nil {
		t.Fatal(err)
	}

	spec2, _ := storeSpec(t, dir)
	r := NewRunner(spec2)
	var events []CellEvent
	r.SetCellObserver(func(ev CellEvent) { events = append(events, ev) }, nil)
	if _, err := r.Run(config.Baseline(), "compress"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(config.Baseline(), "compress"); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("observer saw %d events, want 2", len(events))
	}
	if !events[0].StoreHit || events[0].MemoHit || events[0].Result == nil {
		t.Fatalf("first event = %+v, want StoreHit with result", events[0])
	}
	if !events[1].MemoHit || events[1].StoreHit {
		t.Fatalf("second event = %+v, want MemoHit only", events[1])
	}
}

// TestStoreFailurePersisted drives a poisoned cell through a cold store,
// then restores it warm: the cell fails exactly once across runs, with the
// same headline, ErrCellPanic identity and the original stack preserved.
func TestStoreFailurePersisted(t *testing.T) {
	dir := t.TempDir()
	spec, _ := storeSpec(t, dir)
	spec.Fault = &Fault{Mode: FaultPanic, Workload: "compress", After: 100}
	_, err := NewRunner(spec).Run(config.Baseline(), "compress")
	if err == nil {
		t.Fatal("poisoned cell did not fail")
	}

	spec2, st2 := storeSpec(t, dir)
	spec2.Fault = &Fault{Mode: FaultPanic, Workload: "compress", After: 100}
	warm := NewRunner(spec2)
	_, err2 := warm.Run(config.Baseline(), "compress")
	if err2 == nil {
		t.Fatal("restored poisoned cell did not fail")
	}
	if s := st2.Stats(); s.Hits != 1 {
		t.Fatalf("warm store stats = %+v, want the failure restored as a hit", s)
	}
	if warm.SimulatedCycles() != 0 {
		t.Fatal("restoring a stored failure should not simulate")
	}
	if err.Error() != err2.Error() {
		t.Fatalf("restored failure headline differs:\ncold %q\nwarm %q", err, err2)
	}
	if !errors.Is(err2, ErrCellPanic) {
		t.Fatalf("restored failure lost ErrCellPanic identity: %v", err2)
	}
	var ce *CellError
	if !errors.As(err2, &ce) {
		t.Fatalf("restored failure is not a CellError: %T", err2)
	}
	if !strings.Contains(ce.Stack, "goroutine") {
		t.Fatal("restored failure lost the original panic stack")
	}
	if ce.Machine.Name != config.Baseline().Name {
		t.Fatalf("restored failure machine = %q", ce.Machine.Name)
	}
}

// TestStoreFaultInKey asserts a poisoned cell and its clean twin live under
// different store identities: a store warmed by a faulted campaign never
// leaks the failure into a clean one, and vice versa.
func TestStoreFaultInKey(t *testing.T) {
	dir := t.TempDir()
	spec, _ := storeSpec(t, dir)
	spec.Fault = &Fault{Mode: FaultPanic, Workload: "compress", After: 100}
	if _, err := NewRunner(spec).Run(config.Baseline(), "compress"); err == nil {
		t.Fatal("poisoned cell did not fail")
	}

	clean, st := storeSpec(t, dir)
	res, err := NewRunner(clean).Run(config.Baseline(), "compress")
	if err != nil || res == nil {
		t.Fatalf("clean run poisoned by stored fault entry: %v", err)
	}
	if s := st.Stats(); s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("clean store stats = %+v, want a miss (different identity)", s)
	}
}

// TestStoreQuarantineResimulates corrupts the stored entry on disk and
// asserts the warm run detects it, quarantines, re-simulates to the correct
// result and heals the store with a fresh Put.
func TestStoreQuarantineResimulates(t *testing.T) {
	dir := t.TempDir()
	spec, _ := storeSpec(t, dir)
	want, err := NewRunner(spec).Run(config.Baseline(), "compress")
	if err != nil {
		t.Fatal(err)
	}

	entries, err := filepath.Glob(filepath.Join(dir, "*.cell.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("entries = %v, %v", entries, err)
	}
	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(entries[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	spec2, st2 := storeSpec(t, dir)
	warm := NewRunner(spec2)
	res, err := warm.Run(config.Baseline(), "compress")
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, want)
	if warm.SimulatedCycles() == 0 {
		t.Fatal("corrupt entry should force a re-simulation")
	}
	s := st2.Stats()
	if s.Quarantined != 1 || s.Puts != 1 {
		t.Fatalf("store stats = %+v, want 1 quarantine and 1 healing put", s)
	}
	if _, err := os.Stat(entries[0] + ".corrupt"); err != nil {
		t.Fatalf("corrupt entry not preserved for post-mortem: %v", err)
	}

	// Third run: the healed store serves the re-simulated result.
	spec3, st3 := storeSpec(t, dir)
	res3, err := NewRunner(spec3).Run(config.Baseline(), "compress")
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res3, want)
	if s := st3.Stats(); s.Hits != 1 {
		t.Fatalf("healed store stats = %+v, want 1 hit", s)
	}
}

// TestStoreKeyCoordinates pins what participates in the durable identity:
// machine config, workload, seed and instruction budget all separate cells.
func TestStoreKeyCoordinates(t *testing.T) {
	dir := t.TempDir()
	spec, st := storeSpec(t, dir)
	r := NewRunner(spec)
	if _, err := r.Run(config.Baseline(), "compress"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(config.Baseline(), "eqntott"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(config.DualPort(), "compress"); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Puts != 3 || s.Hits != 0 {
		t.Fatalf("store stats = %+v, want 3 distinct entries", s)
	}

	// A different seed or budget must miss the warm store.
	for _, mutate := range []func(*Spec){
		func(s *Spec) { s.Seed++ },
		func(s *Spec) { s.Insts /= 2 },
	} {
		spec2, st2 := storeSpec(t, dir)
		mutate(&spec2)
		if _, err := NewRunner(spec2).Run(config.Baseline(), "compress"); err != nil {
			t.Fatal(err)
		}
		if s := st2.Stats(); s.Hits != 0 || s.Misses != 1 {
			t.Fatalf("mutated-spec store stats = %+v, want a miss", s)
		}
	}
}

// TestStoreDegradedRunsClean points the runner at a store whose directory
// is gone mid-campaign: every cell still computes, the campaign succeeds,
// and the store reports itself degraded instead of erroring the run.
func TestStoreDegradedRunsClean(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	spec, st := storeSpec(t, dir)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	// Plant a file where the store's temp files would go so CreateTemp
	// cannot succeed.
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(spec)
	res, err := r.Run(config.Baseline(), "compress")
	if err != nil || res == nil {
		t.Fatalf("campaign failed over store trouble: %v", err)
	}
	if s := st.Stats(); !s.Degraded || s.PutFailures != 1 {
		t.Fatalf("store stats = %+v, want degraded with 1 put failure", s)
	}
}

// runF7A6 renders the F7 and A6 tables on a small spec over the store in
// dir, returning the tables and the runner.
func runF7A6(t *testing.T, dir string) (string, *Runner, *cellstore.Store) {
	t.Helper()
	st, err := cellstore.Open(dir, cellstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(Spec{Workloads: []string{"compress"}, Insts: 3_000, Seed: 42, Parallel: 2, Store: st})
	_, f7, err := F7KernelIntensity(r)
	if err != nil {
		t.Fatal(err)
	}
	_, a6, err := A6Multiprogramming(r)
	if err != nil {
		t.Fatal(err)
	}
	return f7.String() + a6.String(), r, st
}

// TestStoreRestoresMutatedAndMultiprogramCells asserts the kernel-intensity
// (mutated profiles) and multiprogramming (multi-process mixes) sweeps
// take the same memo → store → simulate lookup as named cells: a second
// runner over the warm store restores every cell, simulates nothing, builds
// no arena, and renders identical tables.
func TestStoreRestoresMutatedAndMultiprogramCells(t *testing.T) {
	dir := t.TempDir()
	cold, coldRunner, coldStore := runF7A6(t, dir)
	if coldRunner.SimulatedCycles() == 0 {
		t.Fatal("cold run simulated nothing")
	}
	const cells = 24 // 4 F7 points and 4 A6 levels, 3 machines each
	if s := coldStore.Stats(); s.Puts != cells || s.Hits != 0 {
		t.Fatalf("cold store stats = %+v, want %d puts", s, cells)
	}

	warm, warmRunner, warmStore := runF7A6(t, dir)
	if warm != cold {
		t.Errorf("warm tables diverge:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	if c := warmRunner.SimulatedCycles(); c != 0 {
		t.Errorf("warm run simulated %d cycles, want 0", c)
	}
	if s := warmStore.Stats(); s.Hits != cells || s.Misses != 0 || s.Puts != 0 {
		t.Errorf("warm store stats = %+v, want %d hits and nothing else", s, cells)
	}
	if ast, _ := warmRunner.ArenaStats(); ast.Builds != 0 {
		t.Errorf("warm run built %d arenas, want 0", ast.Builds)
	}
}

// TestStoreKeyStreamIdentity pins the stream fingerprint's reach: F7
// points that differ only in kernel cadence, A6 levels, and an edited copy
// of a built-in profile under its own name all get distinct store keys.
func TestStoreKeyStreamIdentity(t *testing.T) {
	r := NewRunner(QuickSpec())
	m := config.Baseline()
	cfgJSON, err := m.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	keyID := func(prof workload.Profile, processes, quantum int) string {
		t.Helper()
		rc, err := newRecipe(prof, processes, quantum)
		if err != nil {
			t.Fatal(err)
		}
		return r.storeKey(m.Name, cfgJSON, rc).ID()
	}
	database, _ := workload.ByName("database")
	low, high := database, database
	low.Name, high.Name = "database-k-x", "database-k-x"
	low.Kernel.EveryMean, high.Kernel.EveryMean = 16000, 1200
	if keyID(low, 1, 0) == keyID(high, 1, 0) {
		t.Error("profiles differing only in Kernel.EveryMean share a store key")
	}

	compress, _ := workload.ByName("compress")
	seen := map[string]int{}
	for _, n := range []int{1, 2, 4, 8} {
		id := keyID(compress, n, 5000)
		if prev, dup := seen[id]; dup {
			t.Errorf("A6 levels %d and %d share a store key", prev, n)
		}
		seen[id] = n
	}

	edited := compress
	edited.MeanBlockLen++
	if keyID(edited, 1, 0) == keyID(compress, 1, 0) {
		t.Error("an edited copy of compress under the same name shares its store key")
	}
}
