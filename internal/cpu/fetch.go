package cpu

import (
	"portsim/internal/bpred"
	"portsim/internal/diag"
	"portsim/internal/isa"
	"portsim/internal/trace"
)

// fetch moves up to FetchWidth instructions from the input into the fetch
// buffer, modelling the instruction cache (one line per cycle) and the
// branch predictor. A predicted-taken control transfer ends the fetch group;
// a misprediction (or a serialising syscall) stalls fetch until the
// offending instruction resolves (or commits). Predictors train here rather
// than at commit: fetch order equals program order in a trace-driven model
// (there is no wrong path), and training at fetch keeps gshare's global
// history exactly in step with the fetch stream — the behaviour of real
// hardware's speculatively updated, repair-on-mispredict history register.
//
//portlint:hotpath
func (c *Core) fetch() {
	if c.stallSeq != 0 || c.cycle < c.fetchBlockedTil {
		c.fetchStallCycles++
		if c.stallSeq != 0 && !c.stallOnCommit && c.cfg.Core.WrongPathFetch && c.wrongPathPC != 0 {
			// The real front end keeps fetching down the predicted
			// (wrong) path until the branch resolves, polluting the
			// instruction cache. One line per stalled cycle.
			if r := c.sys.InstFetch(c.cycle, c.wrongPathPC); r.Accepted {
				c.wrongPathPC += uint64(c.cfg.L1I.LineBytes)
				c.wrongPathLines++
			}
		}
		return
	}
	c.wrongPathPC = 0
	c.fetchArena()
}

// fetchArena fetches one whole fetch group per call, consumed straight
// from the input's packed arena arrays. The group's extent comes from
// precomputed metadata — the line-boundary check is a mask test on the PC
// array and the group-ending redirect test is one flag bit — and the branch
// predictors run over the group's control instructions in a single
// PredictGroup call. A group may straddle a chunk boundary of the input
// ring: the window holds the next chunk's first instructions too, so the
// group is the one a whole arena would give.
//
// The stream's end is noticed exactly when fetch asks for the instruction
// past it: at the start of a group, or when a group that nothing cut
// (no line crossing, redirect, misprediction, full width or full buffer)
// runs into it. That is also when a source panic is re-raised.
//
//portlint:hotpath
func (c *Core) fetchArena() {
	n := c.cfg.Core.FetchWidth
	if space := len(c.fetchBuf) - c.fbCount; space < n {
		n = space
	}
	if n <= 0 {
		return
	}
	if c.limitReached() {
		return
	}
	if c.maxInsts > 0 {
		if left := c.maxInsts - c.seq; uint64(n) > left { //portlint:ignore cyclemath limitReached() above returned false, so c.seq < c.maxInsts here
			n = int(left)
		}
	}
	a, pos := c.in.Window()
	rem := a.Len() - pos
	if rem == 0 {
		c.endOfStream()
		return
	}
	short := rem < n
	if short {
		n = rem
	}
	pcs := a.PCs()
	metas := a.Meta()
	lineMask := ^uint64(uint64(c.cfg.L1I.LineBytes) - 1)
	line := pcs[pos] & lineMask
	if line != c.curFetchLine {
		r := c.sys.InstFetch(c.cycle, pcs[pos])
		if !r.Accepted {
			c.fetchBlockedTil = c.cycle + 1
			return
		}
		c.curFetchLine = line
		if r.Ready > c.cycle+uint64(c.cfg.L1I.HitLatency) {
			// Instruction-cache miss: deliver when the line arrives.
			c.fetchBlockedTil = r.Ready
			return
		}
	}
	// Group extent: cut (exclusive) at the first line crossing, cut
	// (inclusive) after the first redirecting control instruction, staging
	// the group's control ops for the batch predictor as we go.
	targets := a.Targets()
	classes := a.Classes()
	nops := 0
	for i := 0; i < n; i++ {
		p := pos + i
		if i > 0 && pcs[p]&lineMask != line {
			// One instruction line per cycle: the group ends at the
			// boundary; the crossing instruction starts the next group.
			n = i
			break
		}
		m := metas[p]
		if m&trace.MetaCtrl == 0 {
			continue
		}
		c.fetchOps[nops] = bpred.Op{
			PC:     pcs[p],
			Target: targets[p],
			Class:  isa.Class(classes[p]),
			Taken:  m&trace.MetaTaken != 0,
			Index:  i,
		}
		nops++
		if m&trace.MetaRedirect != 0 {
			// The committed path leaves the fall-through here: whether
			// predicted or not, nothing behind it fetches this cycle.
			n = i + 1
			break
		}
	}
	stop := -1
	if k := c.pred.PredictGroup(c.fetchOps[:nops]); k > 0 {
		if op := &c.fetchOps[k-1]; op.Mispredicted || op.Serialize {
			n = op.Index + 1
			stop = k - 1
		}
	}
	for i := 0; i < n; i++ {
		c.seq++
		f := c.fbSlot()
		f.seq = c.seq
		f.mispredicted = false
		f.serialize = false
		a.Inst(pos+i, &f.inst)
		if stop >= 0 && i == c.fetchOps[stop].Index {
			f.mispredicted = c.fetchOps[stop].Mispredicted
			f.serialize = c.fetchOps[stop].Serialize
		}
		if c.rec != nil {
			c.rec.Record(c.cycle, diag.EventFetch, f.seq, f.inst.PC)
		}
	}
	redirect := metas[pos+n-1]&trace.MetaRedirect != 0
	if stop >= 0 {
		// Fetch stops until this instruction resolves (branch) or commits
		// (syscall).
		ender := &c.fetchOps[stop]
		c.stallSeq = c.seq
		c.stallOnCommit = ender.Serialize
		if ender.Mispredicted && c.cfg.Core.WrongPathFetch {
			var last isa.Inst
			a.Inst(pos+n-1, &last)
			c.wrongPathPC = wrongPathStart(&last)
		}
	}
	// Advance only after the last read of a: it may hand a's chunk back to
	// the producer for refilling.
	c.in.Advance(n)
	switch {
	case stop >= 0:
	case redirect:
		// Correctly predicted taken: the group ends; fetch resumes at the
		// target next cycle. Invalidate the line tracker so the target
		// line is fetched fresh.
		c.curFetchLine = ^uint64(0)
	case short && n == rem:
		// Nothing cut the group before the stream's end: fetch asks for
		// the next instruction and finds none.
		c.endOfStream()
	}
}

// endOfStream marks the input exhausted, first re-raising the source's
// panic if that is why it ended.
//
//portlint:coldpath runs once per run, when fetch first finds the stream exhausted
func (c *Core) endOfStream() {
	c.in.Fault()
	c.streamDone = true
}

// wrongPathStart picks the address the front end would (wrongly) have
// fetched from: the fall-through when the branch was actually taken, the
// stale target otherwise.
func wrongPathStart(in *isa.Inst) uint64 {
	if in.Redirects() {
		return in.FallThrough()
	}
	if in.Target != 0 {
		return in.Target
	}
	return in.FallThrough()
}
