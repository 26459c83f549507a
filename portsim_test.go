package portsim_test

import (
	"runtime"
	"testing"

	"portsim"
	"portsim/internal/isa"
	"portsim/internal/trace"
)

func TestPresetsAvailable(t *testing.T) {
	names := portsim.ConfigNames()
	if len(names) != 7 {
		t.Fatalf("expected 7 presets, got %v", names)
	}
	for _, name := range names {
		cfg, ok := portsim.ConfigByName(name)
		if !ok {
			t.Errorf("preset %q missing", name)
		}
		if cfg.Name == "" {
			t.Errorf("preset %q has empty machine name", name)
		}
	}
	if _, ok := portsim.ConfigByName("octo-port"); ok {
		t.Error("unknown preset resolved")
	}
}

func TestWorkloadsAvailable(t *testing.T) {
	if len(portsim.Workloads()) != 7 {
		t.Fatalf("expected 7 workloads, got %v", portsim.Workloads())
	}
	for _, name := range portsim.Workloads() {
		if _, ok := portsim.WorkloadByName(name); !ok {
			t.Errorf("workload %q missing", name)
		}
	}
}

func TestQuickRun(t *testing.T) {
	sim, err := portsim.New(portsim.BaselineConfig(), "compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 20_000 {
		t.Errorf("committed %d, want 20000", res.Instructions)
	}
	if res.IPC <= 0 || res.IPC > 4 {
		t.Errorf("IPC %.3f implausible", res.IPC)
	}
	if res.Counters.Get("port.cycles") == 0 {
		t.Error("port statistics missing")
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	if _, err := portsim.New(portsim.BaselineConfig(), "quake", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := portsim.BaselineConfig()
	cfg.Ports.Count = 0
	if _, err := portsim.New(cfg, "compress", 1); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSimulationIsSingleUse(t *testing.T) {
	sim, err := portsim.New(portsim.BaselineConfig(), "compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(1000); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(1000); err == nil {
		t.Error("second Run on the same simulation succeeded")
	}
}

func TestCustomProfile(t *testing.T) {
	prof, _ := portsim.WorkloadByName("eqntott")
	prof.Name = "eqntott-no-os"
	prof.Kernel.EveryMean = 0
	sim, err := portsim.NewFromProfile(portsim.DualPortConfig(), prof, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.KernelInsts != 0 {
		t.Errorf("OS-disabled profile committed %d kernel instructions", res.KernelInsts)
	}
}

func TestCustomStream(t *testing.T) {
	insts := make([]portsim.Instruction, 100)
	for i := range insts {
		insts[i] = portsim.Instruction{
			PC:    uint64(0x1000 + (i%8)*4),
			Class: isa.IntALU,
			Dest:  isa.Reg(1 + i%8),
		}
	}
	sim, err := portsim.NewFromStream(portsim.BaselineConfig(), trace.NewSliceStream(insts))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(0) // run to stream end
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 100 {
		t.Errorf("committed %d, want 100", res.Instructions)
	}
}

func TestSeedsChangeResults(t *testing.T) {
	ipc := func(seed int64) float64 {
		sim, err := portsim.New(portsim.BaselineConfig(), "database", seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(20_000)
		if err != nil {
			t.Fatal(err)
		}
		return res.IPC
	}
	if ipc(1) == ipc(2) {
		t.Error("different seeds produced identical IPC; generator seeding broken")
	}
	if ipc(3) != ipc(3) {
		t.Error("same seed produced different IPC; determinism broken")
	}
}

// TestUnrunSimulationStartsNothing checks that building a simulation over
// a live stream starts no goroutine: the input producer belongs to Run,
// and a simulation that never runs must not leave one behind.
func TestUnrunSimulationStartsNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	for seed := int64(0); seed < 4; seed++ {
		if _, err := portsim.New(portsim.BaselineConfig(), "compress", seed); err != nil {
			t.Fatal(err)
		}
		prof, _ := portsim.WorkloadByName("mp3d")
		if _, err := portsim.NewFromProfile(portsim.BestSingleConfig(), prof, seed); err != nil {
			t.Fatal(err)
		}
		stream := trace.NewSliceStream([]isa.Inst{{PC: 0x1000, Class: isa.IntALU, Dest: 1}})
		if _, err := portsim.NewFromStream(portsim.BaselineConfig(), stream); err != nil {
			t.Fatal(err)
		}
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after building simulations, want at most %d", n, base)
	}
}
