package mem

import (
	"testing"

	"portsim/internal/config"
)

func newTLB(t *testing.T, entries, pageBits, penalty int) *TLB {
	t.Helper()
	tl, err := NewTLB(config.TLB{Entries: entries, PageBits: pageBits, MissPenalty: penalty})
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestTLBMissThenHit(t *testing.T) {
	tl := newTLB(t, 4, 12, 20)
	if got := tl.Translate(0x1234); got != 20 {
		t.Errorf("cold lookup penalty = %d, want 20", got)
	}
	if got := tl.Translate(0x1FFF); got != 0 {
		t.Errorf("same-page lookup penalty = %d, want 0", got)
	}
	if got := tl.Translate(0x2000); got != 20 {
		t.Errorf("next-page lookup penalty = %d, want 20", got)
	}
	if tl.Hits() != 1 || tl.Misses() != 2 {
		t.Errorf("hits=%d misses=%d", tl.Hits(), tl.Misses())
	}
}

func TestTLBLRUReplacement(t *testing.T) {
	tl := newTLB(t, 2, 12, 10)
	tl.Translate(0x1000) // page 1
	tl.Translate(0x2000) // page 2
	tl.Translate(0x1000) // refresh page 1
	tl.Translate(0x3000) // evicts page 2
	if got := tl.Translate(0x1000); got != 0 {
		t.Error("MRU page evicted")
	}
	if got := tl.Translate(0x2000); got == 0 {
		t.Error("LRU page survived")
	}
}

func TestTLBFlushAll(t *testing.T) {
	tl := newTLB(t, 4, 12, 10)
	tl.Translate(0x1000)
	tl.FlushAll()
	if got := tl.Translate(0x1000); got == 0 {
		t.Error("entry survived flush")
	}
}

func TestTLBDisabled(t *testing.T) {
	tl := newTLB(t, 0, 0, 0)
	if len(tl.entries) != 0 {
		t.Error("zero-entry TLB holds entries")
	}
	if got := tl.Translate(0x1000); got != 0 {
		t.Error("disabled TLB charged a penalty")
	}
	if tl.Hits() != 0 || tl.Misses() != 0 {
		t.Error("disabled TLB counted lookups")
	}
}

func TestTLBRejectsBadConfig(t *testing.T) {
	bad := []config.TLB{
		{Entries: -1},
		{Entries: 4, PageBits: 5, MissPenalty: 10},
		{Entries: 4, PageBits: 40, MissPenalty: 10},
		{Entries: 4, PageBits: 12, MissPenalty: 0},
	}
	for i, cfg := range bad {
		if _, err := NewTLB(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestSystemChargesTLBWalks(t *testing.T) {
	m := config.Baseline()
	m.DTLB = config.TLB{Entries: 2, PageBits: 12, MissPenalty: 50}
	s, err := NewSystem(&m)
	if err != nil {
		t.Fatal(err)
	}
	cold := s.DataAccess(0, 0x100000, false)
	if !cold.Accepted {
		t.Fatal("access refused")
	}
	// Warm the cache line, then touch it again after evicting the TLB
	// entry: the second access pays only the walk on top of a cache hit.
	warm := s.DataAccess(cold.Ready+1, 0x100000, false)
	base := warm.Ready - (cold.Ready + 1)
	s.DataAccess(warm.Ready+1, 0x200000, false)
	s.DataAccess(warm.Ready+100, 0x300000, false) // evicts page 0x100
	again := s.DataAccess(warm.Ready+1000, 0x100000, false)
	walked := again.Ready - (warm.Ready + 1000)
	if walked < base+50 {
		t.Errorf("TLB-missing hit took %d cycles, want >= %d (walk not charged?)", walked, base+50)
	}
}

func TestSystemTLBDisabledIsFree(t *testing.T) {
	m := config.Baseline()
	m.ITLB = config.TLB{}
	m.DTLB = config.TLB{}
	s, err := NewSystem(&m)
	if err != nil {
		t.Fatal(err)
	}
	r := s.DataAccess(0, 0x1000, false)
	if !r.Accepted {
		t.Fatal("access refused")
	}
	if len(s.DTLB.entries) != 0 {
		t.Error("disabled DTLB holds entries")
	}
}
