package core

import (
	"math/rand"
	"testing"

	"portsim/internal/config"
	"portsim/internal/mem"
	"portsim/internal/stats"
)

func newPort(t *testing.T, ports config.Ports) (*MemPort, *mem.System) {
	t.Helper()
	m := config.Baseline()
	m.Ports = ports
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	sys, err := mem.NewSystem(&m)
	if err != nil {
		t.Fatal(err)
	}
	return NewMemPort(m.Ports, sys), sys
}

func singleNarrow() config.Ports {
	return config.Ports{Count: 1, WidthBytes: 8, StoreBufferEntries: 8, FillBytesPerCycle: 16, StoresCheckLineBuffers: true}
}

func bestSingle() config.Ports {
	return config.BestSingle().Ports
}

func TestTryLoadConsumesPort(t *testing.T) {
	p, _ := newPort(t, singleNarrow())
	p.BeginCycle(0)
	if r := p.TryLoad(0, 0x1000, 8); !r.Accepted || r.Source != SourceCache {
		t.Fatalf("first load = %+v", r)
	}
	if r := p.TryLoad(0, 0x2000, 8); r.Accepted {
		t.Fatal("second load accepted on a single port")
	}
	portBusy, _, _ := p.Rejects()
	if portBusy != 1 {
		t.Errorf("port-busy rejects = %d, want 1", portBusy)
	}
	p.EndCycle(0)
	p.FinishCycle()
	p.BeginCycle(1)
	if r := p.TryLoad(1, 0x2000, 8); !r.Accepted {
		t.Fatal("load refused on a fresh cycle")
	}
}

func TestDualPortTwoLoadsPerCycle(t *testing.T) {
	cfg := singleNarrow()
	cfg.Count = 2
	p, _ := newPort(t, cfg)
	p.BeginCycle(0)
	if !p.TryLoad(0, 0x1000, 8).Accepted || !p.TryLoad(0, 0x2000, 8).Accepted {
		t.Fatal("dual port refused two loads")
	}
	if p.TryLoad(0, 0x3000, 8).Accepted {
		t.Fatal("dual port accepted a third load")
	}
}

func TestLoadAllLineBufferSkipsPort(t *testing.T) {
	p, _ := newPort(t, bestSingle())
	p.BeginCycle(0)
	r := p.TryLoad(0, 0x1000, 8)
	if !r.Accepted || r.Source != SourceCache {
		t.Fatalf("first load = %+v", r)
	}
	// Second load in the same 32-byte chunk: line buffer, no port needed
	// even though the single port is consumed.
	r2 := p.TryLoad(0, 0x1008, 8)
	if !r2.Accepted || r2.Source != SourceLineBuffer {
		t.Fatalf("chunk-local load = %+v, want line-buffer hit", r2)
	}
	if r2.Ready < r.Ready {
		t.Error("line-buffer data ready before the fill that latched it")
	}
	if p.loadsBySource[SourceLineBuffer] != 1 {
		t.Error("line-buffer load not counted")
	}
}

func TestNarrowPortNeverFillsLineBuffers(t *testing.T) {
	cfg := singleNarrow()
	cfg.LineBuffers = 4 // enabled, but the 8-byte port cannot load-all
	p, _ := newPort(t, cfg)
	p.BeginCycle(0)
	p.TryLoad(0, 0x1000, 8)
	p.EndCycle(0)
	p.BeginCycle(1)
	if r := p.TryLoad(1, 0x1008, 8); r.Source == SourceLineBuffer {
		t.Error("narrow port produced a line-buffer hit")
	}
	if p.LineBuffers().Fills() != 0 {
		t.Error("narrow port filled a line buffer")
	}
}

func TestStoreInvalidatesLineBuffer(t *testing.T) {
	p, _ := newPort(t, bestSingle())
	p.BeginCycle(0)
	p.TryLoad(0, 0x1000, 8) // latches chunk 0x1000
	p.EndCycle(0)
	p.BeginCycle(1)
	if !p.TryCommitStore(1, 0x1008, 8) {
		t.Fatal("store refused")
	}
	// A load to the stored bytes forwards from the store buffer...
	r := p.TryLoad(1, 0x1008, 8)
	if !r.Accepted || r.Source != SourceStoreBuffer {
		t.Fatalf("load over store = %+v, want store-buffer forward", r)
	}
	// ...and a load to OTHER bytes of the chunk must NOT hit the (stale)
	// line buffer.
	r2 := p.TryLoad(1, 0x1010, 8)
	if r2.Accepted && r2.Source == SourceLineBuffer {
		t.Fatal("load hit a line buffer invalidated by a store")
	}
}

func TestCacheEvictionInvalidatesLineBuffer(t *testing.T) {
	p, sys := newPort(t, bestSingle())
	p.BeginCycle(0)
	p.TryLoad(0, 0x1000, 8)
	if p.LineBuffers().Live() != 1 {
		t.Fatal("chunk not latched")
	}
	// Force eviction of line 0x1000 from L1D (2-way, 16KB stride sets).
	sys.L1D.Install(0x1000+16384, false)
	sys.L1D.Install(0x1000+32768, false)
	sys.L1D.Install(0x1000+49152, false)
	if p.LineBuffers().Live() != 0 {
		t.Error("line buffer survived the eviction of its cache line")
	}
}

func TestStoreDrainUsesIdlePort(t *testing.T) {
	p, _ := newPort(t, singleNarrow())
	p.BeginCycle(0)
	if !p.TryCommitStore(0, 0x3000, 8) {
		t.Fatal("store refused")
	}
	p.EndCycle(0) // no loads: the store should drain now
	p.FinishCycle()
	if p.StoreBuffer().Drains() != 1 {
		t.Error("idle port did not drain the store")
	}
	// The entry occupies the buffer until its write completes (cold miss).
	if p.PendingStores() != 1 {
		t.Error("issued store vanished before completion")
	}
	p.BeginCycle(100000)
	if p.PendingStores() != 0 {
		t.Error("completed store still occupies the buffer")
	}
}

func TestLoadsHavePriorityOverStores(t *testing.T) {
	p, _ := newPort(t, singleNarrow())
	// Warm the line so loads hit, then run the clock forward so the
	// warm-up miss's refill bandwidth is fully paid off.
	p.BeginCycle(0)
	p.TryLoad(0, 0x4000, 8)
	p.EndCycle(0)
	p.FinishCycle()
	for cyc := uint64(1); cyc < 1000; cyc++ {
		p.BeginCycle(cyc)
		p.EndCycle(cyc)
		p.FinishCycle()
	}
	now := uint64(1000)
	p.BeginCycle(now)
	if !p.TryCommitStore(now, 0x5000, 8) {
		t.Fatal("store refused")
	}
	if !p.TryLoad(now, 0x4000, 8).Accepted {
		t.Fatal("load refused")
	}
	p.EndCycle(now)
	p.FinishCycle()
	// The single port went to the load; the store is still queued.
	if p.StoreBuffer().Drains() != 0 {
		t.Error("store stole the port from a load")
	}
	p.BeginCycle(now + 1)
	p.EndCycle(now + 1)
	if p.StoreBuffer().Drains() != 1 {
		t.Error("store did not drain on the next idle cycle")
	}
}

func TestStoreBufferBackPressure(t *testing.T) {
	cfg := singleNarrow()
	cfg.StoreBufferEntries = 2
	p, _ := newPort(t, cfg)
	p.BeginCycle(0)
	// Saturate: distinct chunks so nothing combines, and consume the port
	// with a load so nothing drains.
	p.TryLoad(0, 0x9000, 8)
	if !p.TryCommitStore(0, 0x100, 8) || !p.TryCommitStore(0, 0x200, 8) {
		t.Fatal("stores refused below capacity")
	}
	if p.TryCommitStore(0, 0x300, 8) {
		t.Error("store accepted beyond capacity")
	}
	p.EndCycle(0)
}

func TestCombiningRetiresManyStoresPerDrain(t *testing.T) {
	cfg := bestSingle()
	chunk := uint64(cfg.WidthBytes)
	perChunk := int(chunk / 8)
	p, _ := newPort(t, cfg)
	// Fill one chunk with 8-byte stores while the port is load-busy.
	p.BeginCycle(0)
	p.TryLoad(0, 0x8000, 8)
	for i := 0; i < perChunk; i++ {
		if !p.TryCommitStore(0, 0x100+uint64(i)*8, 8) {
			t.Fatal("store refused")
		}
	}
	p.EndCycle(0)
	p.FinishCycle()
	if p.StoreBuffer().Len() != 1 {
		t.Fatalf("combining left %d entries, want 1", p.StoreBuffer().Len())
	}
	// The combining hold policy keeps the entry open for merging; it
	// drains once aged out.
	for cyc := uint64(1); cyc <= combineHoldCycles+1; cyc++ {
		p.BeginCycle(cyc)
		p.EndCycle(cyc)
		p.FinishCycle()
	}
	if p.StoreBuffer().Drains() != 1 {
		t.Fatal("combined entry did not drain in one port write")
	}
	if got := p.StoreBuffer().Inserts(); got != uint64(perChunk) {
		t.Errorf("one port write retired %d stores, want %d", got, perChunk)
	}
}

func TestPartialStoreOverlapStallsLoad(t *testing.T) {
	p, _ := newPort(t, bestSingle())
	p.BeginCycle(0)
	if !p.TryCommitStore(0, 0x100, 4) {
		t.Fatal("store refused")
	}
	r := p.TryLoad(0, 0x100, 8) // needs bytes 0-7; store wrote 0-3
	if r.Accepted {
		t.Fatal("partially covered load accepted")
	}
	_, _, conflicts := p.Rejects()
	if conflicts != 1 {
		t.Errorf("store-conflict rejects = %d, want 1", conflicts)
	}
}

func TestUtilisationAndHistogram(t *testing.T) {
	p, _ := newPort(t, singleNarrow())
	for cyc := uint64(0); cyc < 4; cyc++ {
		p.BeginCycle(cyc)
		if cyc%2 == 0 {
			p.TryLoad(cyc, 0x1000*cyc, 8)
		}
		p.EndCycle(cyc)
		p.FinishCycle()
	}
	if got := p.Utilisation(); got != 0.5 {
		t.Errorf("Utilisation = %v, want 0.5", got)
	}
	h := p.grantHist
	if h.Bucket(0) != 2 || h.Bucket(1) != 2 {
		t.Errorf("grant histogram 0:%d 1:%d, want 2 and 2", h.Bucket(0), h.Bucket(1))
	}
}

func TestDrainAll(t *testing.T) {
	p, _ := newPort(t, bestSingle())
	p.BeginCycle(0)
	for i := uint64(0); i < 4; i++ {
		if !p.TryCommitStore(0, 0x1000*i, 8) {
			t.Fatal("store refused")
		}
	}
	p.EndCycle(0)
	p.FinishCycle()
	last := p.DrainAll(1)
	if p.PendingStores() != 0 {
		t.Error("DrainAll left pending stores")
	}
	if last == 0 {
		t.Error("DrainAll reported no completion time")
	}
}

func TestReport(t *testing.T) {
	p, _ := newPort(t, bestSingle())
	p.BeginCycle(0)
	p.TryLoad(0, 0x100, 8)
	p.TryCommitStore(0, 0x200, 8)
	p.EndCycle(0)
	p.FinishCycle()
	s := stats.NewSet()
	p.Report(s)
	if s.Get("port.cycles") != 1 {
		t.Errorf("port.cycles = %d", s.Get("port.cycles"))
	}
	if s.Get("port.load_accesses") != 1 {
		t.Errorf("port.load_accesses = %d", s.Get("port.load_accesses"))
	}
	if s.Get("port.sb_inserts") != 1 {
		t.Errorf("port.sb_inserts = %d", s.Get("port.sb_inserts"))
	}
}

func TestLoadSourceString(t *testing.T) {
	if SourceCache.String() != "cache" || SourceLineBuffer.String() != "line-buffer" ||
		SourceStoreBuffer.String() != "store-buffer" {
		t.Error("source names wrong")
	}
	if LoadSource(9).String() == "" {
		t.Error("unknown source renders empty")
	}
}

// TestLineBufferNeverStale is DESIGN.md's staleness property: replaying a
// random mix of loads and stores, a load served by the line buffers must
// always observe a chunk latched at or after the last committed store to
// that chunk. Sequence numbers stand in for data values.
func TestLineBufferNeverStale(t *testing.T) {
	p, _ := newPort(t, bestSingle())
	rng := rand.New(rand.NewSource(3))
	fillSeq := map[uint64]int{}  // chunk -> op index of the cache load that latched it
	storeSeq := map[uint64]int{} // chunk -> op index of the last committed store
	chunk := func(a uint64) uint64 { return a &^ 31 }
	now := uint64(0)
	for op := 0; op < 50000; op++ {
		now++
		p.BeginCycle(now)
		addr := uint64(rng.Intn(1<<14)) &^ 7 // 16KB footprint, 8-byte aligned
		if rng.Intn(3) == 0 {
			if p.TryCommitStore(now, addr, 8) {
				storeSeq[chunk(addr)] = op
			}
		} else {
			r := p.TryLoad(now, addr, 8)
			if r.Accepted {
				switch r.Source {
				case SourceCache:
					fillSeq[chunk(addr)] = op
				case SourceLineBuffer:
					if fillSeq[chunk(addr)] < storeSeq[chunk(addr)] {
						t.Fatalf("op %d: line-buffer hit on chunk %#x latched at %d, but stored at %d",
							op, chunk(addr), fillSeq[chunk(addr)], storeSeq[chunk(addr)])
					}
				}
			}
		}
		p.EndCycle(now)
		p.FinishCycle()
	}
}
