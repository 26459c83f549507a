// Package cache implements the set-associative cache model used by the
// simulator. Level is a tag/state model for the timing simulator: it tracks
// presence, dirtiness and LRU order, and reports evictions so higher layers
// (the load-all line buffers of internal/core) can keep themselves coherent.
//
// All caches are write-back, write-allocate, with true-LRU replacement, as
// in the paper's R10000-class memory system.
package cache

import (
	"fmt"

	"portsim/internal/config"
)

// Line states.
const (
	stateInvalid uint8 = iota
	stateClean
	stateDirty
)

type way struct {
	tag   uint64
	state uint8
	lru   uint64
}

// Level is the tag/state cache model. It is not safe for concurrent use;
// the simulator is single-threaded by design (cycle-driven determinism).
type Level struct {
	geom    config.CacheGeom
	sets    [][]way
	setMask uint64
	offBits uint
	clock   uint64

	// Statistics, exported through accessors.
	hits, misses, writebacks, evictions uint64

	// OnEvict, when non-nil, is invoked with the line-aligned address of
	// every line that leaves the cache (replacement or invalidation).
	// internal/core uses it to invalidate load-all line buffers whose
	// backing line is gone.
	OnEvict func(lineAddr uint64)
}

// NewLevel constructs a cache level from validated geometry.
func NewLevel(geom config.CacheGeom) (*Level, error) {
	if geom.SizeBytes <= 0 || geom.Assoc <= 0 || geom.LineBytes <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry %+v", geom)
	}
	if geom.SizeBytes%(geom.Assoc*geom.LineBytes) != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible by assoc*line", geom.SizeBytes)
	}
	nsets := geom.Sets()
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", nsets)
	}
	if geom.LineBytes&(geom.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d not a power of two", geom.LineBytes)
	}
	offBits := uint(0)
	for 1<<offBits < geom.LineBytes {
		offBits++
	}
	sets := make([][]way, nsets)
	backing := make([]way, nsets*geom.Assoc)
	for i := range sets {
		sets[i] = backing[i*geom.Assoc : (i+1)*geom.Assoc]
	}
	return &Level{geom: geom, sets: sets, setMask: uint64(nsets - 1), offBits: offBits}, nil
}

// Reset invalidates every line and zeroes the statistics, restoring the
// level to its just-constructed state (the OnEvict hook is retained, and
// does not fire: a reset is a teardown, not a replacement). Pooled
// simulations reuse the tag arrays across runs through this.
func (l *Level) Reset() {
	for _, set := range l.sets {
		clear(set)
	}
	l.clock = 0
	l.hits, l.misses, l.writebacks, l.evictions = 0, 0, 0, 0
}

// Geom returns the level's geometry.
func (l *Level) Geom() config.CacheGeom { return l.geom }

// LineAddr returns addr rounded down to its line.
func (l *Level) LineAddr(addr uint64) uint64 { return addr &^ (uint64(l.geom.LineBytes) - 1) }

func (l *Level) setIndex(addr uint64) uint64 { return (addr >> l.offBits) & l.setMask }

func (l *Level) tagOf(addr uint64) uint64 { return addr >> l.offBits }

// Lookup probes the cache for addr. On a hit it refreshes LRU state and, for
// write accesses, marks the line dirty. It returns whether the line was
// present.
func (l *Level) Lookup(addr uint64, write bool) bool {
	set := l.sets[l.setIndex(addr)]
	tag := l.tagOf(addr)
	for i := range set {
		if set[i].state != stateInvalid && set[i].tag == tag {
			l.clock++
			set[i].lru = l.clock
			if write {
				set[i].state = stateDirty
			}
			l.hits++
			return true
		}
	}
	l.misses++
	return false
}

// Contains probes without updating LRU or statistics.
func (l *Level) Contains(addr uint64) bool {
	set := l.sets[l.setIndex(addr)]
	tag := l.tagOf(addr)
	for i := range set {
		if set[i].state != stateInvalid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Install brings the line containing addr into the cache (dirty if the
// triggering access was a write, per write-allocate). If a valid line is
// displaced, Install returns its line address and whether it was dirty
// (requiring a writeback). Installing an already-present line just refreshes
// its state.
func (l *Level) Install(addr uint64, write bool) (victimAddr uint64, victimDirty bool, evicted bool) {
	setIdx := l.setIndex(addr)
	set := l.sets[setIdx]
	tag := l.tagOf(addr)
	l.clock++
	victim := 0
	for i := range set {
		if set[i].state != stateInvalid && set[i].tag == tag {
			set[i].lru = l.clock
			if write {
				set[i].state = stateDirty
			}
			return 0, false, false
		}
		if set[i].state == stateInvalid {
			victim = i
			// Keep scanning: the line might still be present in a
			// later way, which must win over filling a hole.
			continue
		}
		if set[victim].state != stateInvalid && set[i].lru < set[victim].lru {
			victim = i
		}
	}
	v := &set[victim]
	if v.state != stateInvalid {
		victimAddr = l.lineAddrFromTag(v.tag)
		victimDirty = v.state == stateDirty
		evicted = true
		l.evictions++
		if victimDirty {
			l.writebacks++
		}
		if l.OnEvict != nil {
			l.OnEvict(victimAddr)
		}
	}
	v.tag = tag
	v.lru = l.clock
	if write {
		v.state = stateDirty
	} else {
		v.state = stateClean
	}
	return victimAddr, victimDirty, evicted
}

// Invalidate removes the line containing addr if present, returning whether
// it was present and dirty. The OnEvict hook fires for invalidations too.
func (l *Level) Invalidate(addr uint64) (present, dirty bool) {
	set := l.sets[l.setIndex(addr)]
	tag := l.tagOf(addr)
	for i := range set {
		if set[i].state != stateInvalid && set[i].tag == tag {
			dirty = set[i].state == stateDirty
			set[i].state = stateInvalid
			l.evictions++
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

func (l *Level) lineAddrFromTag(tag uint64) uint64 { return tag << l.offBits }

// Hits, Misses, Writebacks and Evictions return access statistics.
func (l *Level) Hits() uint64       { return l.hits }
func (l *Level) Misses() uint64     { return l.misses }
func (l *Level) Writebacks() uint64 { return l.writebacks }
func (l *Level) Evictions() uint64  { return l.evictions }

// MissRate returns misses / (hits+misses), zero when no accesses occurred.
func (l *Level) MissRate() float64 {
	total := l.hits + l.misses
	if total == 0 {
		return 0
	}
	return float64(l.misses) / float64(total)
}
