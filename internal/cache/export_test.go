package cache

// Test-only operations on a Level: the simulator never invalidates a line
// by hand (lines leave only by replacement in Install) and reports the raw
// hit and miss counts, not their ratio.

// Invalidate removes the line containing addr if present, returning whether
// it was present and dirty. The OnEvict hook fires for invalidations too.
func (l *Level) Invalidate(addr uint64) (present, dirty bool) {
	set := l.set(addr)
	tag := l.tagOf(addr)
	for i := range set {
		if set[i].state != stateInvalid && set[i].tag == tag {
			dirty = set[i].state == stateDirty
			set[i].state = stateInvalid
			if dirty {
				l.writebacks++
			}
			if l.OnEvict != nil {
				l.OnEvict(l.LineAddr(addr))
			}
			return true, dirty
		}
	}
	return false, false
}

// MissRate returns misses / (hits+misses), zero when no accesses occurred.
func (l *Level) MissRate() float64 {
	total := l.hits + l.misses
	if total == 0 {
		return 0
	}
	return float64(l.misses) / float64(total)
}
