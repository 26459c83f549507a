package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"portsim/internal/cellstore"
	"portsim/internal/config"
	"portsim/internal/cpu"
	"portsim/internal/cpustack"
	"portsim/internal/experiments"
	"portsim/internal/workload"
)

// Share of --seconds the traced run spends on untraced repetitions (the
// overhead baseline) and on traced ones; the module probes take the rest.
const (
	untracedShare = 0.35
	tracedShare   = 0.35
)

// tracedRun holds what every traced run reports besides its own figures.
type tracedRun struct {
	b        *bench
	tr       *tracer
	root     int
	profile  string
	untraced []float64
	traced   []float64
	probes   probeTotals
	ref      []block
}

func (b *bench) newTracedRun() *tracedRun {
	id := fmt.Sprintf("%s-seed%d-%d", b.opt.workload, b.opt.seed, time.Now().UnixNano())
	t := &tracedRun{b: b, tr: newTracer(id)}
	t.root = t.tr.newID()
	t.profile = filepath.Join(b.opt.work, fmt.Sprintf("%s-seed%d-cpu.pprof", b.opt.workload, b.opt.seed))
	return t
}

// profiled runs fn under the CPU profiler.
func (t *tracedRun) profiled(fn func() error) error {
	f, err := os.Create(t.profile)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	err = fn()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// finish reports the probes, the self-time table and the overhead, and
// writes the spans.
func (t *tracedRun) finish(start time.Time) error {
	b := t.b
	t.tr.record(span{id: t.root, name: b.opt.workload, cat: "campaign", start: start, end: time.Now()})
	t.probes.report(b)
	shares, profiled, err := selfShares(t.profile)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, m := range selfModules {
		b.set("host.self."+m, shares[m], "frac")
	}
	table := selfTable(shares, profiled)
	fmt.Print(table)
	base := filepath.Join(b.opt.work, fmt.Sprintf("%s-seed%d", b.opt.workload, b.opt.seed))
	if err := os.WriteFile(base+"-self.txt", []byte(table), 0o644); err != nil {
		return err
	}
	overhead := median(t.traced)/median(t.untraced) - 1
	b.set("bench.trace_overhead_frac", overhead, "frac")
	b.info("tracing overhead %+.1f%% (traced wall p50 %.3fs over %d runs, untraced %.3fs over %d)",
		100*overhead, median(t.traced), len(t.traced), median(t.untraced), len(t.untraced))
	b.set("failed_frac", ratio(float64(b.failed), float64(b.attempted)), "frac")
	if err := t.tr.write(base + "-trace.json"); err != nil {
		return err
	}
	b.info("spans written to %s, CPU profile to %s", base+"-trace.json", t.profile)
	return nil
}

// campaignInputs are the probe inputs of the campaign workloads: every
// profile on the baseline and best-single machines, replayed from arenas.
func campaignInputs(spec experiments.Spec) []probeInput {
	var ins []probeInput
	for _, name := range spec.Workloads {
		prof, _ := workload.ByName(name)
		for _, m := range []config.Machine{config.Baseline(), config.BestSingle()} {
			ins = append(ins, probeInput{machine: m, prof: prof, seed: spec.Seed, procs: 1, insts: spec.Insts, replay: true})
		}
	}
	return ins
}

// resumeState is the warm store a traced resume restores from.
type resumeState struct {
	dir  string
	cold []block
}

func tracedSuite(b *bench) error { return b.newTracedRun().campaign(time.Now(), nil, nil) }

// tracedResume fills a store with the cold campaign, copies every entry
// into a second store under timed Put spans, and resumes from the copy.
func tracedResume(b *bench) error {
	t := b.newTracedRun()
	start := time.Now()
	src, cold, _, err := b.populateStore()
	if err != nil {
		return err
	}
	defer os.RemoveAll(src)
	dst, err := os.MkdirTemp(b.opt.work, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dst)
	from, err := cellstore.Open(src, cellstore.Options{})
	if err != nil {
		return err
	}
	to, err := cellstore.Open(dst, cellstore.Options{})
	if err != nil {
		return err
	}
	setup := t.tr.newID()
	var keys []cellstore.Key
	if _, err := from.Scan(func(e *cellstore.Entry) error {
		var perr error
		d := t.tr.timed("store.Put", "cellstore", setup, map[string]any{"cell": e.Key.Workload + "@" + e.Key.Machine}, func() {
			perr = to.Put(e)
		})
		t.probes.putUs = append(t.probes.putUs, float64(d.Nanoseconds())/1e3)
		keys = append(keys, e.Key)
		return perr
	}); err != nil {
		return err
	}
	t.tr.record(span{id: setup, parent: t.root, name: "populate store", cat: "setup", start: start, end: time.Now()})
	return t.campaign(start, &resumeState{dir: dst, cold: cold}, keys)
}

// campaign runs the untraced in-process repetitions, then the traced ones
// under the profiler, then the module probes. keys, for a resume, are the
// store entries the Get probe reads back.
func (t *tracedRun) campaign(start time.Time, rs *resumeState, keys []cellstore.Key) error {
	b := t.b
	want, ref, err := b.campaignRefs()
	if err != nil {
		return err
	}
	if rs != nil {
		ref = rs.cold
	}
	spec := experiments.DefaultSpec()
	spec.Insts = b.opt.insts
	spec.Seed = b.opt.seed
	spec.Parallel = b.workers
	var openMs []float64
	open := func(parent int) (*cellstore.Store, error) {
		if parent == 0 {
			return cellstore.Open(rs.dir, cellstore.Options{})
		}
		var st *cellstore.Store
		var err error
		d := t.tr.timed("store.Open", "cellstore", parent, nil, func() {
			st, err = cellstore.Open(rs.dir, cellstore.Options{})
		})
		openMs = append(openMs, float64(d.Nanoseconds())/1e6)
		return st, err
	}
	check := func(label string, cs *campaignStats) {
		_, blocks := splitOutput(cs.output)
		r := ref
		if r == nil {
			r = t.firstBlocks(blocks)
		}
		b.checkTables(label, blocks, want, r)
	}

	phase := time.Now()
	for rep := 0; rep < 2 || time.Since(phase).Seconds() < untracedShare*b.opt.seconds; rep++ {
		sp := spec
		t0 := time.Now()
		if rs != nil {
			st, err := open(0)
			if err != nil {
				return err
			}
			sp.Store = st
		}
		cs := runInProcess(sp, nil, 0)
		t.untraced = append(t.untraced, time.Since(t0).Seconds())
		check(fmt.Sprintf("untraced campaign %d", rep), cs)
	}

	var first *campaignStats
	var busy, cellMs []float64
	err = t.profiled(func() error {
		phase := time.Now()
		for rep := 0; rep < 2 || time.Since(phase).Seconds() < tracedShare*b.opt.seconds; rep++ {
			sp := spec
			sp.CPIStack = true
			id := t.tr.newID()
			t0 := time.Now()
			if rs != nil {
				st, err := open(id)
				if err != nil {
					return err
				}
				sp.Store = st
			}
			cs := runInProcess(sp, t.tr, id)
			wall := time.Since(t0)
			t.traced = append(t.traced, wall.Seconds())
			t.tr.record(span{id: id, parent: t.root, name: fmt.Sprintf("campaign %d", rep), cat: "campaign", start: t0, end: t0.Add(wall)})
			check(fmt.Sprintf("traced campaign %d", rep), cs)
			b.check(cs.failed == 0, "traced campaign %d: %d cells failed", rep, cs.failed)
			sum := 0.0
			for _, w := range cs.cellWalls {
				sum += w
				cellMs = append(cellMs, 1e3*w)
			}
			busy = append(busy, sum/(cs.wall.Seconds()*float64(b.workers)))
			if first == nil {
				first = cs
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.set("experiments.busy_frac", median(busy), "frac")
	b.set("experiments.cell_ms_p50", quantile(cellMs, 0.5), "ms")
	b.set("experiments.cell_ms_p90", quantile(cellMs, 0.9), "ms")
	b.set("experiments.cells_simulated", float64(first.simulated), "count")
	b.set("experiments.memo_hits", float64(first.memoHits), "count")
	b.set("experiments.core_pool_hit_rate", ratio(float64(first.poolHits), float64(first.poolHits+first.poolMisses)), "frac")
	b.set("trace.arena_builds", float64(first.arenas.Builds), "count")
	b.set("trace.arena_mib", float64(first.arenas.Bytes)/(1<<20), "MiB")
	first.sim.report(b)
	b.info("%d cells simulated, %d memo hits, %d store hits per campaign", first.simulated, first.memoHits, first.storeHits)

	probe := t.tr.newID()
	t0 := time.Now()
	if err := b.runProbes(t.tr, probe, campaignInputs(spec), &t.probes, rs == nil); err != nil {
		return err
	}
	if rs != nil {
		st, err := open(probe)
		if err != nil {
			return err
		}
		for _, k := range keys {
			var e *cellstore.Entry
			d := t.tr.timed("store.Get", "cellstore", probe, map[string]any{"cell": k.Workload + "@" + k.Machine}, func() {
				e, _ = st.Get(k)
			})
			b.check(e != nil, "store probe: %s@%s missing", k.Workload, k.Machine)
			t.probes.getUs = append(t.probes.getUs, float64(d.Nanoseconds())/1e3)
		}
		t.probes.openMs = openMs
	}
	t.tr.record(span{id: probe, parent: t.root, name: "module probes", cat: "probe", start: t0, end: time.Now()})
	return t.finish(start)
}

// firstBlocks remembers the first campaign's tables as the reference for
// later ones, for seeds with no recorded digests.
func (t *tracedRun) firstBlocks(blocks []block) []block {
	if t.ref == nil {
		t.ref = blocks
		return nil
	}
	return t.ref
}

// tracedCell runs the cell through portsim untraced, then through the cpu
// package with cycle accounting under the profiler, then the probes.
func tracedCell(b *bench, w *cellWorkload) error {
	t := b.newTracedRun()
	start := time.Now()
	var first *cpu.Result
	phase := time.Now()
	for rep := 0; rep < 2 || time.Since(phase).Seconds() < untracedShare*b.opt.seconds; rep++ {
		runtime.GC()
		res, tm, err := w.runOnce(b.opt.seed, b.opt.insts)
		if first == nil && err == nil {
			first = res
		}
		b.checkCell(fmt.Sprintf("untraced cell %d", rep), res, err, b.cellWant(w, first))
		t.untraced = append(t.untraced, (tm.setup + tm.run).Seconds())
	}
	var agg simAgg
	var runMs, busy []float64
	err := t.profiled(func() error {
		phase := time.Now()
		for rep := 0; rep < 1 || time.Since(phase).Seconds() < tracedShare*b.opt.seconds; rep++ {
			runtime.GC()
			stack := cpustack.NewStack()
			id := t.tr.newID()
			res, tm, err := w.runAccounted(b.opt.seed, b.opt.insts, stack)
			b.checkCell(fmt.Sprintf("traced cell %d", rep), res, err, b.cellWant(w, first))
			wall := tm.setup + tm.run
			t.traced = append(t.traced, wall.Seconds())
			end := time.Now()
			t.tr.record(span{id: id, parent: t.root, name: w.name, cat: "cell", lane: 1, start: end.Add(-wall), end: end})
			t.tr.record(span{parent: id, name: "setup", cat: "cell", lane: 1, start: end.Add(-wall), end: end.Add(-tm.run)})
			if err != nil {
				continue
			}
			snap := stack.Snapshot()
			b.check(snap.CheckConservation(res.Cycles) == nil, "traced cell %d: CPI stack does not sum to %d cycles", rep, res.Cycles)
			runMs = append(runMs, 1e3*tm.run.Seconds())
			busy = append(busy, tm.run.Seconds()/wall.Seconds())
			if agg.cycles == 0 {
				agg.add(res, snap)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.set("experiments.busy_frac", median(busy), "frac")
	b.set("experiments.cell_ms_p50", quantile(runMs, 0.5), "ms")
	b.set("experiments.cell_ms_p90", quantile(runMs, 0.9), "ms")
	b.set("experiments.cells_simulated", 1, "count")
	b.set("experiments.memo_hits", 0, "count")
	b.set("experiments.core_pool_hit_rate", 0, "frac")
	b.set("trace.arena_builds", 0, "count")
	b.set("trace.arena_mib", 0, "MiB")
	agg.report(b)

	prof, _ := workload.ByName("compress")
	in := probeInput{machine: w.machine(), prof: prof, seed: b.opt.seed, procs: w.processes, insts: b.opt.insts}
	probe := t.tr.newID()
	t0 := time.Now()
	if err := b.runProbes(t.tr, probe, []probeInput{in}, &t.probes, true); err != nil {
		return err
	}
	t.tr.record(span{id: probe, parent: t.root, name: "module probes", cat: "probe", start: t0, end: time.Now()})
	return t.finish(start)
}
