package main

import (
	"fmt"
	"runtime"
	"time"

	"portsim"
	"portsim/internal/cpu"
	"portsim/internal/cpustack"
	"portsim/internal/trace"
	"portsim/internal/workload"
)

// cellWorkload is one long serial simulation of compress, run through the
// top-level portsim package the way a library user would.
type cellWorkload struct {
	name    string
	machine func() portsim.Config
	// processes above one runs the multiprogrammed stream A6 uses.
	processes int
}

// quantum is A6's mean scheduling quantum in instructions.
const quantum = 5000

var (
	portBound = &cellWorkload{name: "port-bound", machine: portsim.BaselineConfig, processes: 1}
	dramBound = &cellWorkload{name: "dram-bound", machine: portsim.BestSingleConfig, processes: 8}
)

func measurePortBound(b *bench) error { return measureCell(b, portBound) }
func measureDRAMBound(b *bench) error { return measureCell(b, dramBound) }
func tracedPortBound(b *bench) error  { return tracedCell(b, portBound) }
func tracedDRAMBound(b *bench) error  { return tracedCell(b, dramBound) }

// stream returns the cell's instruction stream: the live generator, or the
// quantum interleave of several generator processes.
func (w *cellWorkload) stream(seed int64) (trace.Stream, error) {
	prof, ok := workload.ByName("compress")
	if !ok {
		return nil, fmt.Errorf("no compress workload")
	}
	if w.processes == 1 {
		return workload.New(prof, seed)
	}
	return workload.NewMultiprogram(prof, w.processes, quantum, seed)
}

// cellTiming splits one cell's host time.
type cellTiming struct {
	setup, run time.Duration
}

// setup builds the simulation through the portsim package.
func (w *cellWorkload) setup(seed int64) (*portsim.Simulation, error) {
	if w.processes == 1 {
		return portsim.New(w.machine(), "compress", seed)
	}
	s, err := w.stream(seed)
	if err != nil {
		return nil, err
	}
	return portsim.NewFromStream(w.machine(), s)
}

// runOnce builds and runs the cell through the portsim package.
func (w *cellWorkload) runOnce(seed int64, insts uint64) (*portsim.Result, cellTiming, error) {
	var t cellTiming
	start := time.Now()
	sim, err := w.setup(seed)
	if err != nil {
		return nil, t, err
	}
	t.setup = time.Since(start)
	res, err := sim.Run(insts)
	t.run = time.Since(start) - t.setup
	return res, t, err
}

// runAccounted runs the same cell through the cpu package with cycle
// accounting armed, the traced counterpart of runOnce.
func (w *cellWorkload) runAccounted(seed int64, insts uint64, stack *cpustack.Stack) (*cpu.Result, cellTiming, error) {
	var t cellTiming
	start := time.Now()
	s, err := w.stream(seed)
	if err != nil {
		return nil, t, err
	}
	m := w.machine()
	c, err := cpu.New(&m, s)
	if err != nil {
		return nil, t, err
	}
	t.setup = time.Since(start)
	res, err := c.Run(cpu.Options{
		MaxInstructions: insts,
		DeadlineCycles:  cpu.DeadlineFor(insts),
		StallCycles:     cpu.DefaultStallCycles,
		CPIStack:        stack,
	})
	t.run = time.Since(start) - t.setup
	return res, t, err
}

// checkCell checks one finished cell: it committed exactly its budget and
// took the recorded number of cycles (or, for a seed with no record, the
// same number as the run's first cell).
func (b *bench) checkCell(label string, res *cpu.Result, err error, want uint64) {
	if err != nil {
		b.check(false, "%s: %v", label, err)
		return
	}
	cycles := res.Cycles
	if b.opt.plant {
		cycles++
	}
	b.check(res.Instructions == b.opt.insts && cycles == want,
		"%s: %d instructions in %d cycles, want %d in %d", label, res.Instructions, cycles, b.opt.insts, want)
}

// cellWant returns the cycle count a cell must reproduce.
func (b *bench) cellWant(w *cellWorkload, first *cpu.Result) uint64 {
	if c, ok := b.golden.cycles(w.name, b.opt.seed, b.opt.insts); ok {
		return c
	}
	if first != nil {
		return first.Cycles
	}
	return 0
}

// setupTimes holds, for a fixed family of seeds derived from the run's
// seed, each seed's fastest construction of the cell. Construction is
// short next to a cell, too short to time once per cell, and how long it
// takes depends on the seed: the generator draws its first kernel-entry
// gap with a loop as long as the gap. One seed's set-up would swing the
// metric by several times between runs; the median over the family is
// stable, and still moves with the code. The family is timed one block
// per cell, so its rounds spread over the whole run, and each seed keeps
// its fastest round, which keeps other tenants of the host out of it.
type setupTimes struct {
	best []float64
}

const (
	setupBlocks, setupBlock = 4, 16
	// setupSeedStride separates the derived set-up seeds.
	setupSeedStride = 1_000_003
)

func newSetupTimes() *setupTimes {
	return &setupTimes{best: make([]float64, setupBlocks*setupBlock)}
}

// round times the constructions of block rep mod setupBlocks, collecting
// garbage every few so that they do not raise the peak RSS.
func (st *setupTimes) round(w *cellWorkload, seed int64, rep int) error {
	for i := 0; i < setupBlock; i++ {
		if i%4 == 0 {
			runtime.GC()
		}
		k := rep%setupBlocks*setupBlock + i
		t0 := time.Now()
		if _, err := w.setup(seed + int64(k)*setupSeedStride); err != nil {
			return err
		}
		if d := time.Since(t0).Seconds(); st.best[k] == 0 || d < st.best[k] {
			st.best[k] = d
		}
	}
	return nil
}

// measureCell runs the cell again and again for --seconds, timing one
// block of set-ups before each, until every block has been timed.
func measureCell(b *bench, w *cellWorkload) error {
	setups := newSetupTimes()
	var walls, rates, allocs []float64
	var first *cpu.Result
	cal := newCalibrator(1)
	start := time.Now()
	for rep := 0; rep < minReps || rep < setupBlocks || time.Since(start).Seconds() < b.opt.seconds; rep++ {
		if err := setups.round(w, b.opt.seed, rep); err != nil {
			return err
		}
		runtime.GC()
		m0 := mallocs()
		res, t, err := w.runOnce(b.opt.seed, b.opt.insts)
		m1 := mallocs()
		cal.measure()
		if first == nil && err == nil {
			first = res
		}
		b.checkCell(fmt.Sprintf("cell %d", rep), res, err, b.cellWant(w, first))
		if err != nil {
			continue
		}
		wall := (t.setup + t.run).Seconds()
		walls = append(walls, wall)
		rates = append(rates, float64(res.Cycles)/wall/1e6)
		allocs = append(allocs, 1000*float64(m1-m0)/float64(res.Cycles))
	}
	if len(walls) == 0 {
		return fmt.Errorf("no %s cell finished", w.name)
	}
	rss, err := peakRSS()
	if err != nil {
		return err
	}
	f := cal.factor()
	b.set("wall_s", fastest(walls)*f, "s")
	b.set("setup_s", median(setups.best)*f, "s")
	b.set("peak_rss_mib", float64(rss)/(1<<20), "MiB")
	b.set("sim_mcycles_per_s", quantile(rates, 1)/f, "Mcycles/s")
	b.set("allocs_per_kcycle", median(allocs), "allocs/kcycle")
	b.info("%d cells of %d instructions in %d cycles, as measured: wall min %.4fs p50 %.4fs; %s",
		len(walls), first.Instructions, first.Cycles, fastest(walls), median(walls), cal.info())
	return nil
}
