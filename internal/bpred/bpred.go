// Package bpred implements the branch prediction structures of the simulated
// front end: two-bit saturating-counter direction predictors (bimodal and
// gshare), a set-associative branch target buffer, and a return-address
// stack. The paper's processor model follows the MIPS R10000's dynamic
// prediction; prediction accuracy matters to the port study because
// mispredictions throttle the memory-reference rate reaching the cache port.
package bpred

import (
	"fmt"

	"portsim/internal/config"
)

// DirPredictor predicts conditional-branch directions and learns from
// resolved outcomes.
type DirPredictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the actual outcome of the branch
	// at pc. Implementations must be called in program order.
	Update(pc uint64, taken bool)
}

// counter is a two-bit saturating counter: 0,1 predict not-taken; 2,3
// predict taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) train(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Static is the trivial predictor: backward taken, forward not-taken is not
// representable without the target, so it predicts not-taken always. It is
// the degenerate baseline used in predictor-sensitivity tests.
type Static struct{}

// Predict always predicts not-taken.
func (Static) Predict(uint64) bool { return false }

// Update is a no-op.
func (Static) Update(uint64, bool) {}

// Bimodal is a per-branch table of two-bit counters indexed by PC.
type Bimodal struct {
	table []counter
	mask  uint64
}

// NewBimodal returns a bimodal predictor with the given table size (must be
// a power of two).
func NewBimodal(entries int) (*Bimodal, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("bpred: bimodal table size %d not a power of two", entries)
	}
	t := make([]counter, entries)
	for i := range t {
		t[i] = 1 // weakly not-taken
	}
	return &Bimodal{table: t, mask: uint64(entries - 1)}, nil
}

func (b *Bimodal) index(pc uint64) uint64 { return (pc >> 2) & b.mask }

// Predict implements DirPredictor.
func (b *Bimodal) Predict(pc uint64) bool { return b.table[b.index(pc)].taken() }

// Update implements DirPredictor.
func (b *Bimodal) Update(pc uint64, taken bool) {
	i := b.index(pc)
	b.table[i] = b.table[i].train(taken)
}

// Gshare XORs a global branch-history register with the PC to index a shared
// table of two-bit counters. This is the predictor configuration of the
// baseline machine.
type Gshare struct {
	table    []counter
	mask     uint64
	history  uint64
	histMask uint64
}

// NewGshare returns a gshare predictor with the given table size (power of
// two) and global-history length in bits.
func NewGshare(entries, historyBits int) (*Gshare, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("bpred: gshare table size %d not a power of two", entries)
	}
	if historyBits < 1 || historyBits > 30 {
		return nil, fmt.Errorf("bpred: gshare history length %d out of range", historyBits)
	}
	t := make([]counter, entries)
	for i := range t {
		t[i] = 1
	}
	return &Gshare{
		table:    t,
		mask:     uint64(entries - 1),
		histMask: (1 << historyBits) - 1,
	}, nil
}

func (g *Gshare) index(pc uint64) uint64 { return ((pc >> 2) ^ g.history) & g.mask }

// Predict implements DirPredictor.
func (g *Gshare) Predict(pc uint64) bool { return g.table[g.index(pc)].taken() }

// Update implements DirPredictor. The global history is updated with the
// actual outcome (the model trains at resolution, in program order).
func (g *Gshare) Update(pc uint64, taken bool) {
	i := g.index(pc)
	g.table[i] = g.table[i].train(taken)
	g.history = (g.history << 1) & g.histMask
	if taken {
		g.history |= 1
	}
}

// btbEntry is one BTB way.
type btbEntry struct {
	tag    uint64
	target uint64
	valid  bool
	lru    uint64
}

// BTB is a set-associative branch target buffer with true-LRU replacement.
// The front end consults it to redirect fetch on predicted-taken branches;
// a taken prediction without a BTB hit cannot be redirected and costs the
// same bubble as a misprediction.
type BTB struct {
	// ways holds every set's ways back to back: set i is
	// ways[i*assoc : (i+1)*assoc]. Empty when the BTB is disabled.
	ways    []btbEntry
	assoc   uint64
	setMask uint64
	clock   uint64
}

// NewBTB returns a BTB with the given total entries and associativity.
func NewBTB(entries, assoc int) (*BTB, error) {
	if entries == 0 {
		return &BTB{}, nil // disabled: every lookup misses
	}
	if assoc <= 0 || entries%assoc != 0 {
		return nil, fmt.Errorf("bpred: BTB %d entries / %d ways invalid", entries, assoc)
	}
	nsets := entries / assoc
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("bpred: BTB set count %d not a power of two", nsets)
	}
	return &BTB{ways: make([]btbEntry, entries), assoc: uint64(assoc), setMask: uint64(nsets - 1)}, nil
}

// set returns the ways of the set the branch at pc maps to.
func (b *BTB) set(pc uint64) []btbEntry {
	i := ((pc >> 2) & b.setMask) * b.assoc
	return b.ways[i : i+b.assoc]
}

// Lookup returns the stored target for pc and whether it was present.
func (b *BTB) Lookup(pc uint64) (uint64, bool) {
	if len(b.ways) == 0 {
		return 0, false
	}
	set := b.set(pc)
	for i := range set {
		if set[i].valid && set[i].tag == pc {
			b.clock++
			set[i].lru = b.clock
			return set[i].target, true
		}
	}
	return 0, false
}

// Insert records the target of the branch at pc, replacing the LRU way.
func (b *BTB) Insert(pc, target uint64) {
	if len(b.ways) == 0 {
		return
	}
	set := b.set(pc)
	b.clock++
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == pc {
			set[i].target = target
			set[i].lru = b.clock
			return
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = btbEntry{tag: pc, target: target, valid: true, lru: b.clock}
}

// RAS is a return-address stack with wrap-around overwrite on overflow, as
// in real hardware: pushing onto a full stack silently overwrites the oldest
// entry, and popping an empty stack returns a miss.
type RAS struct {
	stack []uint64
	top   int // number of live entries, saturates at len(stack)
	pos   int // next push index
}

// NewRAS returns a return-address stack of the given depth; depth zero
// disables it (every Pop misses).
func NewRAS(depth int) *RAS {
	return &RAS{stack: make([]uint64, depth)}
}

// Push records a return address.
func (r *RAS) Push(addr uint64) {
	if len(r.stack) == 0 {
		return
	}
	r.stack[r.pos] = addr
	r.pos = (r.pos + 1) % len(r.stack)
	if r.top < len(r.stack) {
		r.top++
	}
}

// Pop returns the most recent return address and whether one was available.
func (r *RAS) Pop() (uint64, bool) {
	if r.top == 0 {
		return 0, false
	}
	r.pos = (r.pos - 1 + len(r.stack)) % len(r.stack)
	r.top--
	return r.stack[r.pos], true
}

// Unit bundles a direction predictor, BTB and RAS as configured, and is the
// interface the fetch stage uses.
type Unit struct {
	Dir DirPredictor
	BTB *BTB
	RAS *RAS
}

// New builds a prediction unit from configuration. The configuration is
// assumed validated (config.Machine.Validate); invalid geometry still
// returns an error rather than panicking.
func New(cfg config.Predictor) (*Unit, error) {
	var dir DirPredictor
	var err error
	switch cfg.Kind {
	case "static":
		dir = Static{}
	case "bimodal":
		dir, err = NewBimodal(cfg.TableEntries)
	case "gshare":
		dir, err = NewGshare(cfg.TableEntries, cfg.HistoryBits)
	default:
		err = fmt.Errorf("bpred: unknown predictor kind %q", cfg.Kind)
	}
	if err != nil {
		return nil, err
	}
	btb, err := NewBTB(cfg.BTBEntries, cfg.BTBAssoc)
	if err != nil {
		return nil, err
	}
	return &Unit{Dir: dir, BTB: btb, RAS: NewRAS(cfg.RASEntries)}, nil
}
