package mem

// FlushAll invalidates every TLB entry. The simulator never flushes a TLB
// (translations leave only by replacement); tests use it to force misses.
func (t *TLB) FlushAll() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
}
