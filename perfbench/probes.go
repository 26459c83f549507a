package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"portsim/internal/bpred"
	"portsim/internal/cellstore"
	"portsim/internal/config"
	"portsim/internal/core"
	"portsim/internal/cpu"
	"portsim/internal/isa"
	"portsim/internal/mem"
	"portsim/internal/trace"
	"portsim/internal/workload"
)

// probeInput is one cell of a workload, replayed module by module.
type probeInput struct {
	machine config.Machine
	prof    workload.Profile
	seed    int64
	procs   int
	insts   uint64
	// replay runs the cpu probe over an arena cursor, as campaign cells
	// do; otherwise it runs over live generation, as portsim.New does.
	replay bool
}

func (in probeInput) label() string {
	if in.procs > 1 {
		return fmt.Sprintf("%s-x%d@%s", in.prof.Name, in.procs, in.machine.Name)
	}
	return in.prof.Name + "@" + in.machine.Name
}

// stream returns a fresh live instruction stream for the input.
func (in probeInput) stream() (trace.Stream, error) {
	if in.procs > 1 {
		return workload.NewMultiprogram(in.prof, in.procs, quantum, in.seed)
	}
	return workload.New(in.prof, in.seed)
}

// memOp is one load or store of the input's stream.
type memOp struct {
	addr  uint64
	size  int
	store bool
}

// probeTotals accumulate the timed work of every probe.
type probeTotals struct {
	genNs, genInsts  float64
	matNs, matInsts  float64
	curNs, curInsts  float64
	predNs, predOps  float64
	portNs, portOps  float64
	memNs, memOps    float64
	runNs, runCycles float64
	openMs           []float64
	putUs, getUs     []float64
}

// report sets the per-module timing metrics.
func (p *probeTotals) report(b *bench) {
	b.set("workload.gen_ns_per_inst", ratio(p.genNs, p.genInsts), "ns/inst")
	b.set("trace.materialize_ns_per_inst", ratio(p.matNs, p.matInsts), "ns/inst")
	b.set("trace.cursor_ns_per_inst", ratio(p.curNs, p.curInsts), "ns/inst")
	b.set("bpred.predict_ns_per_branch", ratio(p.predNs, p.predOps), "ns/branch")
	b.set("core.memport_ns_per_op", ratio(p.portNs, p.portOps), "ns/op")
	b.set("mem.access_ns_per_op", ratio(p.memNs, p.memOps), "ns/op")
	b.set("cpu.run_ns_per_cycle", ratio(p.runNs, p.runCycles), "ns/cycle")
	b.set("cellstore.open_ms", median(p.openMs), "ms")
	b.set("cellstore.get_us_p50", quantile(p.getUs, 0.5), "us")
	b.set("cellstore.get_us_p90", quantile(p.getUs, 0.9), "us")
	b.set("cellstore.put_us_p50", quantile(p.putUs, 0.5), "us")
	b.set("cellstore.put_us_p90", quantile(p.putUs, 0.9), "us")
}

// runProbes times calls into each module's exported functions, driven with
// the inputs. Each input's trace is materialised into an arena under an
// arena-build span. Results of the cpu probe are checked like any cell.
// With storeProbe set, each cell's counters are also written to and read
// back from a scratch store.
func (b *bench) runProbes(tr *tracer, parent int, inputs []probeInput, p *probeTotals, storeProbe bool) error {
	type stored struct {
		key     cellstore.Key
		payload json.RawMessage
	}
	var entries []stored
	for _, in := range inputs {
		label := in.label()
		n := int(in.insts) + cpu.StreamChunk
		buf := make([]isa.Inst, cpu.StreamChunk)

		// workload: generate the stream and drop it.
		s, err := in.stream()
		if err != nil {
			return err
		}
		batcher, _ := s.(trace.Batcher)
		t0 := time.Now()
		for got := 0; got < n; {
			if batcher != nil {
				got += batcher.NextBatch(buf)
			} else if s.Next(&buf[0]) {
				got++
			} else {
				return fmt.Errorf("probe %s: stream ended after %d instructions", label, got)
			}
		}
		p.genNs += float64(time.Since(t0).Nanoseconds())
		p.genInsts += float64(n)

		// Collect the memory operations and fetch groups the port, memory
		// and predictor probes replay.
		ops, groups, err := collectOps(in, n)
		if err != nil {
			return err
		}

		// trace: one arena build per process trace, then a cursor sweep.
		var keep *trace.Arena
		for i := 0; i < in.procs; i++ {
			gen, err := workload.New(in.prof, in.seed+int64(i)*workload.SeedStride)
			if err != nil {
				return err
			}
			var a *trace.Arena
			d := tr.timed("arena-build", "trace", parent, map[string]any{"cell": label, "process": i, "insts": n}, func() {
				a = trace.Materialize(gen, n)
			})
			p.matNs += float64(d.Nanoseconds())
			p.matInsts += float64(a.Len())
			cur := a.NewCursor()
			var inst isa.Inst
			t0 = time.Now()
			for cur.Next(&inst) {
			}
			p.curNs += float64(time.Since(t0).Nanoseconds())
			p.curInsts += float64(a.Len())
			if in.replay && in.procs == 1 {
				keep = a
			}
		}

		// bpred: the fetch groups' control instructions, group by group.
		u, err := bpred.New(in.machine.Pred)
		if err != nil {
			return err
		}
		t0 = time.Now()
		for _, g := range groups {
			for k := 0; k < len(g); {
				done := u.PredictGroup(g[k:])
				if done == 0 {
					break
				}
				k += done
				p.predOps += float64(done)
			}
		}
		p.predNs += float64(time.Since(t0).Nanoseconds())

		// core: the memory operations through a MemPort, at most the
		// machine's memory-issue width per cycle, stores first as commit
		// precedes issue within a cycle.
		sys, err := mem.NewSystem(&in.machine)
		if err != nil {
			return err
		}
		port := core.NewMemPort(in.machine.Ports, sys)
		width := in.machine.Core.MemIssuePerCycle
		if width < 1 {
			width = 1
		}
		t0 = time.Now()
		now := uint64(0)
		for i := 0; i < len(ops); i += width {
			port.BeginCycle(now)
			end := min(i+width, len(ops))
			for _, op := range ops[i:end] {
				if op.store {
					port.TryCommitStore(now, op.addr, op.size)
				}
			}
			for _, op := range ops[i:end] {
				if !op.store {
					port.TryLoad(now, op.addr, op.size)
				}
			}
			port.EndCycle(now)
			port.FinishCycle()
			now++
		}
		p.portNs += float64(time.Since(t0).Nanoseconds())
		p.portOps += float64(len(ops))

		// mem: the same operations straight into the memory system.
		sys, err = mem.NewSystem(&in.machine)
		if err != nil {
			return err
		}
		t0 = time.Now()
		for i, op := range ops {
			sys.DataAccess(uint64(i), op.addr, op.store)
		}
		p.memNs += float64(time.Since(t0).Nanoseconds())
		p.memOps += float64(len(ops))

		// cpu: the whole cell.
		var cs trace.Stream
		if keep != nil {
			cs = keep.NewCursor()
		} else if cs, err = in.stream(); err != nil {
			return err
		}
		m := in.machine
		c, err := cpu.New(&m, cs)
		if err != nil {
			return err
		}
		t0 = time.Now()
		res, err := c.Run(cpu.Options{
			MaxInstructions: in.insts,
			DeadlineCycles:  cpu.DeadlineFor(in.insts),
			StallCycles:     cpu.DefaultStallCycles,
		})
		p.runNs += float64(time.Since(t0).Nanoseconds())
		b.check(err == nil && res.Instructions == in.insts, "probe %s: %v", label, err)
		if err != nil {
			continue
		}
		p.runCycles += float64(res.Cycles)
		if storeProbe {
			cfgJSON, err := m.ToJSON()
			if err != nil {
				return err
			}
			counters := map[string]uint64{}
			for _, name := range res.Counters.Names() {
				counters[name] = res.Counters.Get(name)
			}
			payload, err := json.Marshal(counters)
			if err != nil {
				return err
			}
			entries = append(entries, stored{
				key:     cellstore.Key{ConfigHash: cellstore.HashConfig(cfgJSON), Machine: m.Name, Workload: label, Seed: in.seed, Insts: in.insts},
				payload: payload,
			})
		}
	}
	if !storeProbe {
		return nil
	}
	// cellstore: put every cell, reopen, get every cell; enough rounds for
	// a p90 over at least 20 operations of each kind.
	dir, err := os.MkdirTemp(b.opt.work, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rounds := (20 + len(entries) - 1) / len(entries)
	for r := 0; r < rounds; r++ {
		st, err := cellstore.Open(dir, cellstore.Options{})
		if err != nil {
			return err
		}
		for _, e := range entries {
			var perr error
			d := tr.timed("store.Put", "cellstore", parent, map[string]any{"cell": e.key.Workload}, func() {
				perr = st.Put(&cellstore.Entry{Key: e.key, Result: e.payload})
			})
			if perr != nil {
				return perr
			}
			p.putUs = append(p.putUs, float64(d.Nanoseconds())/1e3)
		}
		d := tr.timed("store.Open", "cellstore", parent, nil, func() {
			st, err = cellstore.Open(dir, cellstore.Options{})
		})
		if err != nil {
			return err
		}
		p.openMs = append(p.openMs, float64(d.Nanoseconds())/1e6)
		for _, e := range entries {
			var got *cellstore.Entry
			d := tr.timed("store.Get", "cellstore", parent, map[string]any{"cell": e.key.Workload}, func() {
				got, _ = st.Get(e.key)
			})
			b.check(got != nil && string(got.Result) == string(e.payload), "store probe: %s did not round-trip", e.key.Workload)
			p.getUs = append(p.getUs, float64(d.Nanoseconds())/1e3)
		}
	}
	return nil
}

// collectOps gathers the first n instructions' memory operations and the
// control instructions of each fetch group, the way fetch forms groups:
// up to the fetch width, ending after a redirecting instruction.
func collectOps(in probeInput, n int) ([]memOp, [][]bpred.Op, error) {
	s, err := in.stream()
	if err != nil {
		return nil, nil, err
	}
	width := in.machine.Core.FetchWidth
	var ops []memOp
	var groups [][]bpred.Op
	var cur []bpred.Op
	pos := 0
	var inst isa.Inst
	for i := 0; i < n && s.Next(&inst); i++ {
		if inst.Class.IsMem() {
			ops = append(ops, memOp{addr: inst.Addr, size: int(inst.Size), store: inst.Class == isa.Store})
		}
		if inst.Class.IsCtrl() {
			cur = append(cur, bpred.Op{PC: inst.PC, Target: inst.Target, Class: inst.Class, Taken: inst.Taken, Index: pos})
		}
		pos++
		if pos == width || inst.Redirects() {
			if len(cur) > 0 {
				groups = append(groups, cur)
			}
			cur, pos = nil, 0
		}
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return ops, groups, nil
}
