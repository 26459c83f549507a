package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"portsim/internal/cpu"
	"portsim/internal/cpustack"
	"portsim/internal/experiments"
	"portsim/internal/stats"
)

// suiteExperiments is portbench's campaign, in its order, for the traced
// run, which drives the experiments package in-process so its observers
// can see every cell. The untraced workloads run portbench itself.
var suiteExperiments = []struct {
	id  string
	run func(*experiments.Runner) (*stats.Table, error)
}{
	{"T1", func(*experiments.Runner) (*stats.Table, error) { return experiments.T1Baseline(), nil }},
	{"T2", func(r *experiments.Runner) (*stats.Table, error) {
		_, t, err := experiments.T2Characterisation(r)
		return t, err
	}},
	{"F1", func(r *experiments.Runner) (*stats.Table, error) {
		_, t, err := experiments.F1PortCount(r)
		return t, err
	}},
	{"F2", func(r *experiments.Runner) (*stats.Table, error) {
		_, t, err := experiments.F2BufferDepth(r)
		return t, err
	}},
	{"F3", func(r *experiments.Runner) (*stats.Table, error) {
		_, t, err := experiments.F3PortWidth(r)
		return t, err
	}},
	{"F4", func(r *experiments.Runner) (*stats.Table, error) {
		_, t, err := experiments.F4LineBuffers(r)
		return t, err
	}},
	{"F5", func(r *experiments.Runner) (*stats.Table, error) {
		_, t, err := experiments.F5StoreCombining(r)
		return t, err
	}},
	{"F6", func(r *experiments.Runner) (*stats.Table, error) {
		_, t, err := experiments.F6Headline(r)
		return t, err
	}},
	{"T3", func(r *experiments.Runner) (*stats.Table, error) {
		_, t, err := experiments.T3PortUtilisation(r)
		return t, err
	}},
	{"T4", func(r *experiments.Runner) (*stats.Table, error) {
		_, t, err := experiments.T4GrantDistribution(r)
		return t, err
	}},
	{"F7", func(r *experiments.Runner) (*stats.Table, error) {
		_, t, err := experiments.F7KernelIntensity(r)
		return t, err
	}},
	{"A1", func(r *experiments.Runner) (*stats.Table, error) {
		_, t, err := experiments.A1Ablation(r)
		return t, err
	}},
	{"A2", func(r *experiments.Runner) (*stats.Table, error) {
		_, t, err := experiments.A2Banking(r)
		return t, err
	}},
	{"A3", func(r *experiments.Runner) (*stats.Table, error) {
		_, t, err := experiments.A3Prefetch(r)
		return t, err
	}},
	{"A4", func(r *experiments.Runner) (*stats.Table, error) {
		_, t, err := experiments.A4MemSpeculation(r)
		return t, err
	}},
	{"A5", func(r *experiments.Runner) (*stats.Table, error) {
		_, t, err := experiments.A5WritePolicy(r)
		return t, err
	}},
	{"A6", func(r *experiments.Runner) (*stats.Table, error) {
		_, t, err := experiments.A6Multiprogramming(r)
		return t, err
	}},
	{"A7", func(r *experiments.Runner) (*stats.Table, error) {
		_, t, err := experiments.A7ArbitrationPolicy(r)
		return t, err
	}},
	{"A8", func(r *experiments.Runner) (*stats.Table, error) {
		_, t, err := experiments.A8WrongPathFetch(r)
		return t, err
	}},
}

// campaignStats is what one in-process campaign yields.
type campaignStats struct {
	wall   time.Duration
	output string
	// cellWalls holds the wall seconds of every simulated cell.
	cellWalls                              []float64
	simulated, memoHits, storeHits, failed int
	poolHits, poolMisses                   uint64
	arenas                                 experiments.ArenaStats
	sim                                    simAgg
}

// cellObserver turns the runner's cell callbacks into spans: a simulated
// cell spans its start to its finish on a free lane; memo and store hits,
// which never start, are zero-length spans at their delivery.
type cellObserver struct {
	tr    *tracer
	stats *campaignStats

	mu     sync.Mutex
	exp    int
	lanes  []bool
	starts map[string][]openCell
}

type openCell struct {
	id, lane int
	start    time.Time
}

func cellKey(machine, workload string, cfg []byte) string {
	return machine + "\x00" + workload + "\x00" + string(cfg)
}

func (o *cellObserver) started(ev experiments.CellStart) {
	o.mu.Lock()
	defer o.mu.Unlock()
	lane := 0
	for i, busy := range o.lanes {
		if !busy {
			lane = i
			break
		}
	}
	o.lanes[lane] = true
	k := cellKey(ev.Machine, ev.Workload, ev.ConfigJSON)
	o.starts[k] = append(o.starts[k], openCell{id: o.tr.newID(), lane: lane, start: time.Now()})
}

func (o *cellObserver) finished(ev experiments.CellEvent) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.stats
	sp := span{parent: o.exp, cat: "cell", name: ev.Workload + "@" + ev.Machine, start: now, end: now,
		lane: len(o.lanes) + 1, args: map[string]any{"memo_hit": ev.MemoHit, "store_hit": ev.StoreHit}}
	switch {
	case ev.MemoHit:
		s.memoHits++
	case ev.StoreHit:
		s.storeHits++
		s.sim.add(ev.Result, ev.CPIStack)
	default:
		s.simulated++
		s.cellWalls = append(s.cellWalls, ev.WallSeconds)
		s.sim.add(ev.Result, ev.CPIStack)
		k := cellKey(ev.Machine, ev.Workload, ev.ConfigJSON)
		if open := o.starts[k]; len(open) > 0 {
			sp.id, sp.lane, sp.start = open[0].id, open[0].lane, open[0].start
			o.starts[k] = open[1:]
			o.lanes[sp.lane] = false
			sp.lane++
		}
		if ev.Result != nil {
			sp.args["cycles"] = ev.Result.Cycles
		}
	}
	if ev.Err != nil {
		s.failed++
		sp.args["error"] = ev.Err.Error()
	}
	o.tr.record(sp)
}

// runInProcess runs the whole campaign on one runner and renders its
// output exactly as portbench prints it. With a tracer it records a span
// per experiment and per cell under parent; without one it installs no
// observer at all, like portbench with telemetry off.
func runInProcess(spec experiments.Spec, tr *tracer, parent int) *campaignStats {
	s := &campaignStats{}
	runner := experiments.NewRunner(spec)
	var obs *cellObserver
	if tr != nil {
		obs = &cellObserver{tr: tr, stats: s, lanes: make([]bool, runner.Parallel()), starts: map[string][]openCell{}}
		runner.SetCellStartObserver(obs.started)
		runner.SetCellObserver(obs.finished, time.Now)
	}
	var out strings.Builder
	fmt.Fprintf(&out, "portbench: %d workloads x %d instructions, seed %d\n\n", len(spec.Workloads), spec.Insts, spec.Seed)
	start := time.Now()
	for _, e := range suiteExperiments {
		runner.SetExperiment(e.id)
		var id int
		if obs != nil {
			id = tr.newID()
			obs.mu.Lock()
			obs.exp = id
			obs.mu.Unlock()
		}
		t0 := time.Now()
		table, err := e.run(runner)
		if err != nil {
			fmt.Fprintf(&out, "%s: FAILED: %v\n\n", e.id, err)
		} else {
			fmt.Fprintln(&out, table.String())
		}
		if obs != nil {
			tr.record(span{id: id, parent: parent, name: e.id, cat: "experiment", start: t0, end: time.Now()})
		}
	}
	s.wall = time.Since(start)
	s.output = out.String()
	s.poolHits, s.poolMisses = runner.PoolStats()
	s.arenas, _ = runner.ArenaStats()
	return s
}

// simAgg sums the simulated statistics of a set of cells.
type simAgg struct {
	counters   map[string]float64
	slotCycles float64
	insts      float64
	cycles     float64
	cpi        [cpustack.NumBuckets]float64
	cpiTotal   float64
}

func (a *simAgg) add(res *cpu.Result, stack *cpustack.Snapshot) {
	if res == nil {
		return
	}
	if a.counters == nil {
		a.counters = map[string]float64{}
	}
	a.insts += float64(res.Instructions)
	a.cycles += float64(res.Cycles)
	if res.Counters != nil {
		// The grant histogram has one bucket per grant count from zero to
		// the port's slots per cycle, so its length gives the slot count.
		slots := -1
		for _, name := range res.Counters.Names() {
			a.counters[name] += float64(res.Counters.Get(name))
			if strings.HasPrefix(name, "port.cycles_with_") {
				slots++
			}
		}
		a.slotCycles += float64(res.Counters.Get(stats.PortCycles)) * float64(slots)
	}
	if stack == nil {
		stack = res.CPIStack
	}
	if stack != nil {
		for i := range a.cpi {
			v := float64(stack.Get(cpustack.Bucket(i)))
			a.cpi[i] += v
			a.cpiTotal += v
		}
	}
}

// report sets the simulated-statistics metrics. They are exact for a
// given seed and show which module a workload stresses.
func (a *simAgg) report(b *bench) {
	c := a.counters
	rejects := 0.0
	for _, name := range stats.PortRejectNames {
		rejects += c[name]
	}
	b.set("cpu.ipc", ratio(a.insts, a.cycles), "insts/cycle")
	b.set("core.port_util", ratio(c[stats.PortGrants], a.slotCycles), "frac")
	b.set("core.grant_frac", ratio(c[stats.PortGrants], c[stats.PortGrants]+rejects), "frac")
	b.set("core.lb_hit_rate", ratio(c[stats.PortLoadsFromLineBuffer], c[stats.PortLoadsFromLineBuffer]+c[stats.PortLoadsFromCache]), "frac")
	b.set("core.stores_per_drain", ratio(c[stats.PortSBInserts], c[stats.PortSBDrains]), "stores/drain")
	b.set("cache.l1d_miss_rate", ratio(c[stats.L1DMisses], c[stats.L1DMisses]+c[stats.L1DHits]), "frac")
	b.set("mem.dram_per_kinst", ratio(1000*c[stats.DRAMAccesses], a.insts), "accesses/kinst")
	groups := map[string]float64{}
	for i, v := range a.cpi {
		bk := cpustack.Bucket(i)
		b.set("cpi."+bk.String(), ratio(v, a.cpiTotal), "frac")
		if g := bk.Group(); g != bk.String() {
			groups[g] += v
		}
	}
	b.set("cpi.mem", ratio(groups["memory"], a.cpiTotal), "frac")
	b.set("cpi.issue", ratio(groups["issue"], a.cpiTotal), "frac")
}
