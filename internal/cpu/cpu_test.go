package cpu

import (
	"math"
	"testing"

	"portsim/internal/config"
	"portsim/internal/isa"
	"portsim/internal/trace"
	"portsim/internal/workload"
)

// prog builds a straight-line program at 0x1000 from the given classes,
// filling in plausible registers; memory ops read/write the addrs slice in
// order.
func prog(classes []isa.Class, addrs []uint64) []isa.Inst {
	insts := make([]isa.Inst, len(classes))
	ai := 0
	for i, cls := range classes {
		// PCs cycle within one instruction-cache line so the tests
		// measure backend behaviour, not cold-code fetch misses.
		pc := uint64(0x1000 + (i%8)*4)
		in := isa.Inst{PC: pc, Class: cls}
		switch cls {
		case isa.Load:
			in.Dest = isa.Reg(1 + i%20)
			in.Addr = addrs[ai]
			in.Size = 8
			ai++
		case isa.Store:
			in.Src1 = isa.Reg(1 + i%20)
			in.Addr = addrs[ai]
			in.Size = 8
			ai++
		case isa.IntALU, isa.IntMul, isa.IntDiv:
			in.Dest = isa.Reg(1 + i%20)
		case isa.FPAdd, isa.FPMul, isa.FPDiv:
			in.Dest = isa.FPBase + isa.Reg(1+i%20)
		}
		insts[i] = in
	}
	return insts
}

func run(t *testing.T, m config.Machine, insts []isa.Inst) *Result {
	t.Helper()
	c, err := New(&m, trace.NewSliceStream(insts))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(Options{DeadlineCycles: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
	return res
}

// checkInvariants verifies the renamer's conservation laws after a run: the
// machine is empty, and every physical register is either mapped or free,
// never both, never neither.
func checkInvariants(t *testing.T, c *Core) {
	t.Helper()
	if c.robCount != 0 || c.fbCount != 0 {
		t.Fatalf("machine not drained: rob=%d fetchBuf=%d", c.robCount, c.fbCount)
	}
	if c.lqCount != 0 || c.sqCount != 0 || c.intQCount != 0 || c.fpQCount != 0 {
		t.Fatalf("queue counters nonzero after drain: lq=%d sq=%d int=%d fp=%d",
			c.lqCount, c.sqCount, c.intQCount, c.fpQCount)
	}
	seen := make(map[int16]string)
	for i, p := range c.intMap {
		if prev, dup := seen[p]; dup {
			t.Fatalf("int phys %d mapped twice (%s and r%d)", p, prev, i)
		}
		seen[p] = "mapped"
	}
	for _, p := range c.intFree {
		if prev, dup := seen[p]; dup {
			t.Fatalf("int phys %d is %s and free", p, prev)
		}
		seen[p] = "free"
	}
	if len(seen) != c.cfg.Core.IntPhysRegs {
		t.Fatalf("int phys registers leaked: %d accounted of %d", len(seen), c.cfg.Core.IntPhysRegs)
	}
	seenFP := make(map[int16]bool)
	for _, p := range c.fpMap {
		if seenFP[p] {
			t.Fatal("fp phys mapped twice")
		}
		seenFP[p] = true
	}
	for _, p := range c.fpFree {
		if seenFP[p] {
			t.Fatal("fp phys mapped and free")
		}
		seenFP[p] = true
	}
	if len(seenFP) != c.cfg.Core.FPPhysRegs {
		t.Fatalf("fp phys registers leaked: %d of %d", len(seenFP), c.cfg.Core.FPPhysRegs)
	}
}

func TestEmptyStream(t *testing.T) {
	res := run(t, config.Baseline(), nil)
	if res.Instructions != 0 {
		t.Errorf("committed %d from an empty stream", res.Instructions)
	}
}

func TestIndependentALUThroughput(t *testing.T) {
	// 4000 independent single-cycle ops on a 4-wide machine: IPC should
	// approach 2 (two ALUs are the bottleneck, not width).
	classes := make([]isa.Class, 4000)
	for i := range classes {
		classes[i] = isa.IntALU
	}
	insts := prog(classes, nil)
	for i := range insts {
		insts[i].Dest = isa.Reg(1 + i%20)
		insts[i].Src1 = 0
		insts[i].Src2 = 0
	}
	res := run(t, config.Baseline(), insts)
	if res.IPC < 1.7 || res.IPC > 2.05 {
		t.Errorf("independent ALU IPC = %.2f, want ~2 (ALU-bound)", res.IPC)
	}
}

func TestDependenceChainSerialises(t *testing.T) {
	// A chain of dependent multiplies runs at 1/latency IPC.
	n := 1000
	insts := make([]isa.Inst, n)
	for i := range insts {
		insts[i] = isa.Inst{PC: uint64(0x1000 + (i%8)*4), Class: isa.IntMul, Dest: 1, Src1: 1}
	}
	res := run(t, config.Baseline(), insts)
	want := 1.0 / float64(config.Baseline().Lat.IntMul)
	if res.IPC > want*1.15 || res.IPC < want*0.8 {
		t.Errorf("dependent mul chain IPC = %.3f, want ~%.3f", res.IPC, want)
	}
}

func TestLoadsCommitAndCount(t *testing.T) {
	classes := make([]isa.Class, 100)
	addrs := make([]uint64, 0, 50)
	for i := range classes {
		if i%2 == 0 {
			classes[i] = isa.Load
			addrs = append(addrs, uint64(0x8000+8*len(addrs)))
		} else {
			classes[i] = isa.IntALU
		}
	}
	res := run(t, config.Baseline(), prog(classes, addrs))
	if res.Loads != 50 {
		t.Errorf("loads = %d, want 50", res.Loads)
	}
	if res.Instructions != 100 {
		t.Errorf("instructions = %d, want 100", res.Instructions)
	}
}

func TestStoreLoadForwardingInLSQ(t *testing.T) {
	// store A; load A pairs: each load must forward from the in-flight
	// store in the LSQ rather than waiting for memory.
	var insts []isa.Inst
	for i := 0; i < 200; i++ {
		insts = append(insts,
			isa.Inst{PC: 0x1000, Class: isa.Store, Src1: 1, Addr: 0x8000, Size: 8},
			isa.Inst{PC: 0x1004, Class: isa.Load, Dest: 2, Addr: 0x8000, Size: 8},
		)
	}
	res := run(t, config.Baseline(), insts)
	if got := res.Counters.Get("lsq.forwards"); got < 150 {
		t.Errorf("lsq.forwards = %d, want most of the 200 load instances", got)
	}
}

func TestPartialOverlapStallsUntilCommit(t *testing.T) {
	// A 4-byte store partially overlapping an 8-byte load: the load must
	// wait for the store to commit and drain, so no LSQ forward happens.
	insts := []isa.Inst{
		{PC: 0x1000, Class: isa.Store, Src1: 1, Addr: 0x8000, Size: 4},
		{PC: 0x1004, Class: isa.Load, Dest: 2, Addr: 0x8000, Size: 8},
	}
	res := run(t, config.Baseline(), insts)
	if res.Counters.Get("lsq.forwards") != 0 {
		t.Error("partial overlap forwarded")
	}
	if res.Instructions != 2 {
		t.Errorf("instructions = %d", res.Instructions)
	}
}

func TestMispredictsCostCycles(t *testing.T) {
	// A tight always-taken loop branch: with a static (always not-taken)
	// predictor every iteration mispredicts; gshare plus the BTB learn it
	// after a handful of iterations.
	m := config.Baseline()
	m.Pred.Kind = "static"
	var insts []isa.Inst
	for i := 0; i < 200; i++ {
		taken := i != 199
		insts = append(insts, isa.Inst{PC: 0x1000, Class: isa.IntALU, Dest: 1})
		insts = append(insts, isa.Inst{PC: 0x1004, Class: isa.Branch, Target: 0x1000, Taken: taken})
	}
	resStatic := run(t, m, insts)
	if resStatic.Mispredicts != 199 {
		t.Errorf("static predictor mispredicts = %d, want 199 (every taken instance)", resStatic.Mispredicts)
	}
	// The same program with a warmed-up gshare+BTB mispredicts less and
	// runs faster.
	resG := run(t, config.Baseline(), insts)
	if resG.Mispredicts >= resStatic.Mispredicts {
		t.Errorf("gshare mispredicts %d not below static %d", resG.Mispredicts, resStatic.Mispredicts)
	}
	if resG.Cycles >= resStatic.Cycles {
		t.Errorf("gshare cycles %d not below static %d", resG.Cycles, resStatic.Cycles)
	}
}

func TestSyscallSerialises(t *testing.T) {
	// ALUs, a syscall, more ALUs: cycles must exceed the no-syscall run
	// by at least the drain + redirect penalty.
	mk := func(withSyscall bool) []isa.Inst {
		var insts []isa.Inst
		for i := 0; i < 40; i++ {
			insts = append(insts, isa.Inst{PC: uint64(0x1000 + (i%8)*4), Class: isa.IntALU, Dest: 1 + isa.Reg(i%8)})
		}
		if withSyscall {
			insts = append(insts, isa.Inst{PC: 0x1020, Class: isa.Syscall, Target: 0x1000})
		}
		for i := 0; i < 40; i++ {
			insts = append(insts, isa.Inst{PC: uint64(0x1000 + (i%8)*4), Class: isa.IntALU, Dest: 1 + isa.Reg(i%8)})
		}
		return insts
	}
	with := run(t, config.Baseline(), mk(true))
	without := run(t, config.Baseline(), mk(false))
	if with.Cycles <= without.Cycles+uint64(config.Baseline().Core.MispredictPenalty) {
		t.Errorf("syscall cost only %d cycles over %d; serialisation missing",
			with.Cycles-without.Cycles, without.Cycles)
	}
}

func TestStoreBufferBackPressureStallsCommit(t *testing.T) {
	// A long burst of stores to distinct lines with a tiny store buffer
	// must record commit stalls.
	m := config.Baseline()
	m.Ports.StoreBufferEntries = 1
	classes := make([]isa.Class, 200)
	addrs := make([]uint64, 200)
	for i := range classes {
		classes[i] = isa.Store
		addrs[i] = uint64(0x10000 + i*4096)
	}
	res := run(t, m, prog(classes, addrs))
	if res.Counters.Get("stall.commit_store_buffer") == 0 {
		t.Error("no commit stalls with a 1-entry store buffer and 200 store misses")
	}
}

func TestDualPortBeatsSingleOnLoadBursts(t *testing.T) {
	// Pairs of independent loads to distinct, cache-resident lines: a
	// dual-ported cache should clearly outperform a single port.
	var insts []isa.Inst
	for round := 0; round < 300; round++ {
		for i := 0; i < 4; i++ {
			insts = append(insts, isa.Inst{
				PC: uint64(0x1000 + i*4), Class: isa.Load, Dest: isa.Reg(1 + (round*4+i)%20),
				Addr: uint64(0x8000 + (i*4+round)%16*32), Size: 8,
			})
		}
	}
	single := run(t, config.Baseline(), insts)
	dual := run(t, config.DualPort(), insts)
	if dual.IPC <= single.IPC*1.1 {
		t.Errorf("dual-port IPC %.3f not clearly above single %.3f on a load-saturated stream",
			dual.IPC, single.IPC)
	}
}

func TestMaxInstructionsBound(t *testing.T) {
	p, _ := workload.ByName("compress")
	g, err := workload.New(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	m := config.Baseline()
	c, err := New(&m, g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(Options{MaxInstructions: 5000, DeadlineCycles: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 5000 {
		t.Errorf("committed %d, want exactly 5000", res.Instructions)
	}
}

func TestWorkloadRunsAreDeterministic(t *testing.T) {
	ipc := func() float64 {
		p, _ := workload.ByName("database")
		g, err := workload.New(p, 21)
		if err != nil {
			t.Fatal(err)
		}
		m := config.BestSingle()
		c, err := New(&m, g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(Options{MaxInstructions: 30000, DeadlineCycles: 5_000_000})
		if err != nil {
			t.Fatal(err)
		}
		return res.IPC
	}
	a, b := ipc(), ipc()
	if a != b {
		t.Errorf("identical runs produced IPC %v and %v", a, b)
	}
}

func TestAllWorkloadsRunOnAllPresets(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-product run is slow")
	}
	for _, wname := range workload.Names() {
		for _, preset := range config.PresetNames() {
			p, _ := workload.ByName(wname)
			g, err := workload.New(p, 5)
			if err != nil {
				t.Fatal(err)
			}
			m := config.Presets[preset]()
			c, err := New(&m, g)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run(Options{MaxInstructions: 20000, DeadlineCycles: 5_000_000})
			if err != nil {
				t.Fatalf("%s on %s: %v", wname, preset, err)
			}
			if res.IPC <= 0 || res.IPC > float64(m.Core.CommitWidth) {
				t.Errorf("%s on %s: implausible IPC %.3f", wname, preset, res.IPC)
			}
			checkInvariants(t, c)
		}
	}
}

func TestKernelUserAccounting(t *testing.T) {
	p, _ := workload.ByName("pmake")
	g, err := workload.New(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	m := config.Baseline()
	c, err := New(&m, g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(Options{MaxInstructions: 50000, DeadlineCycles: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.KernelInsts == 0 {
		t.Error("pmake run committed no kernel instructions")
	}
	if res.UserInsts+res.KernelInsts != res.Instructions {
		t.Error("user+kernel does not sum to total")
	}
}

func TestICacheMissesSlowFetch(t *testing.T) {
	// A program whose working set of code far exceeds L1I (32KB) versus
	// a tight loop: the big-footprint run must show I-cache misses.
	p, _ := workload.ByName("database") // 1500 blocks, large code footprint
	g, _ := workload.New(p, 13)
	m := config.Baseline()
	c, _ := New(&m, g)
	res, err := c.Run(Options{MaxInstructions: 30000, DeadlineCycles: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get("l1i.misses") == 0 {
		t.Error("large-code workload produced no instruction-cache misses")
	}
}

// TestDeadlineForSaturates: the deadlock-guard deadline must saturate at
// math.MaxUint64 for absurd instruction budgets instead of wrapping into a
// near-zero instant deadline.
func TestDeadlineForSaturates(t *testing.T) {
	if got := DeadlineFor(0); got != 0 {
		t.Errorf("DeadlineFor(0) = %d; zero must stay zero (guard disabled)", got)
	}
	if got := DeadlineFor(1000); got != 400_000 {
		t.Errorf("DeadlineFor(1000) = %d, want 400000", got)
	}
	const boundary = math.MaxUint64 / deadlineCyclesPerInst
	if got := DeadlineFor(boundary); got != deadlineCyclesPerInst*boundary {
		t.Errorf("DeadlineFor(boundary) = %d; the largest exact product must not saturate", got)
	}
	for _, insts := range []uint64{boundary + 1, math.MaxUint64} {
		if got := DeadlineFor(insts); got != math.MaxUint64 {
			t.Errorf("DeadlineFor(%d) = %d, want saturation at MaxUint64 (wrap would be %d)",
				insts, got, deadlineCyclesPerInst*insts)
		}
	}
}

func mustProfile(t testing.TB, name string) workload.Profile {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	return p
}
