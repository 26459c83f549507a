package core

// Test-only views of port and line-buffer state that no production path
// reads: the simulator reports through Stats, and only these tests need
// the derived ratios or a wholesale flush.

// InvalidateAll empties the set.
func (s *LineBufferSet) InvalidateAll() {
	for i := range s.valid {
		if s.valid[i] {
			s.valid[i] = false
			s.invalidations++
		}
	}
}

// HitRate returns hits/(hits+misses), zero when unused.
func (s *LineBufferSet) HitRate() float64 {
	total := s.hits + s.misses
	if total == 0 {
		return 0
	}
	return float64(s.hits) / float64(total)
}

// Utilisation returns the mean fraction of access slots (ports or banks)
// granted per cycle.
func (p *MemPort) Utilisation() float64 {
	slots := uint64(SlotsPerCycle(p.cfg))
	if p.cycles == 0 || slots == 0 {
		return 0
	}
	return float64(p.busyGrants) / float64(p.cycles*slots)
}
