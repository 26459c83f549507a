package mem

import (
	"fmt"

	"portsim/internal/config"
)

// TLB is a fully associative translation lookaside buffer with true-LRU
// replacement. The simulator charges a fixed page-walk penalty on a miss;
// translations themselves are identity-mapped (the timing model does not
// need physical addresses, only the hit/miss behaviour). OS-heavy workloads
// with scattered footprints stress it exactly as the paper's methodology
// intends.
type TLB struct {
	pageBits uint
	entries  []tlbEntry
	clock    uint64
	penalty  uint64

	// mru is the index of the last entry hit or filled. Page locality
	// makes consecutive translations land on the same entry, so checking
	// it first turns the common case into one compare instead of a full
	// associative scan. Pure fast path: hit/miss outcomes, LRU stamps and
	// victim choice are identical to the scan below.
	mru int

	hits, misses uint64
}

type tlbEntry struct {
	vpn   uint64
	lru   uint64
	valid bool
}

// NewTLB builds a TLB from configuration; a zero entry count returns a
// disabled TLB whose Translate never charges a penalty.
func NewTLB(cfg config.TLB) (*TLB, error) {
	if cfg.Entries < 0 {
		return nil, fmt.Errorf("mem: negative TLB size")
	}
	if cfg.Entries > 0 {
		if cfg.PageBits < 10 || cfg.PageBits > 30 {
			return nil, fmt.Errorf("mem: TLB page size 2^%d out of range", cfg.PageBits)
		}
		if cfg.MissPenalty < 1 {
			return nil, fmt.Errorf("mem: TLB miss penalty must be positive")
		}
	}
	return &TLB{
		pageBits: uint(cfg.PageBits),
		entries:  make([]tlbEntry, cfg.Entries),
		penalty:  uint64(cfg.MissPenalty),
	}, nil
}

// Translate looks up the page of addr and returns the page-walk penalty in
// cycles: zero on a hit (or when disabled), the configured walk latency on
// a miss (after which the translation is resident).
func (t *TLB) Translate(addr uint64) (penalty uint64) {
	if len(t.entries) == 0 {
		return 0
	}
	vpn := addr >> t.pageBits
	t.clock++
	if m := &t.entries[t.mru]; m.valid && m.vpn == vpn {
		m.lru = t.clock
		t.hits++
		return 0
	}
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpn == vpn {
			e.lru = t.clock
			t.mru = i
			t.hits++
			return 0
		}
	}
	// Miss: pick the replacement victim — the last invalid entry if any
	// (matching the historical single-pass scan), else true LRU.
	victim := 0
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			victim = i
			continue
		}
		if t.entries[victim].valid && e.lru < t.entries[victim].lru {
			victim = i
		}
	}
	t.misses++
	t.entries[victim] = tlbEntry{vpn: vpn, lru: t.clock, valid: true}
	t.mru = victim
	return t.penalty
}

// Hits and Misses return lookup statistics.
func (t *TLB) Hits() uint64   { return t.hits }
func (t *TLB) Misses() uint64 { return t.misses }
