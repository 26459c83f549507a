// Package flatmem provides a sparse byte-addressable memory used as the
// reference model in correctness tests (the store buffer's byte-exactness
// property tests replay against it). It sits at the bottom of the package
// graph so any package's tests can depend on it.
package flatmem

// pageBits sizes the lazily allocated pages.
const pageBits = 12

// Mem is a sparse byte-addressable memory. All bytes read as zero until
// written. The zero value is not usable; construct with New.
type Mem struct {
	pages map[uint64]*[1 << pageBits]byte
}

// New returns an empty memory.
func New() *Mem {
	return &Mem{pages: make(map[uint64]*[1 << pageBits]byte)}
}

func (m *Mem) page(addr uint64, create bool) *[1 << pageBits]byte {
	key := addr >> pageBits
	p := m.pages[key]
	if p == nil && create {
		p = new([1 << pageBits]byte)
		m.pages[key] = p
	}
	return p
}

// ReadAt copies len(p) bytes starting at addr into p.
func (m *Mem) ReadAt(addr uint64, p []byte) {
	for len(p) > 0 {
		off := addr & (1<<pageBits - 1)
		n := int(min(uint64(len(p)), 1<<pageBits-off))
		pg := m.page(addr, false)
		if pg == nil {
			clear(p[:n])
		} else {
			copy(p[:n], pg[off:])
		}
		p = p[n:]
		addr += uint64(n)
	}
}

// WriteAt copies p into the memory starting at addr.
func (m *Mem) WriteAt(addr uint64, p []byte) {
	for len(p) > 0 {
		off := addr & (1<<pageBits - 1)
		n := int(min(uint64(len(p)), 1<<pageBits-off))
		pg := m.page(addr, true)
		copy(pg[off:], p[:n])
		p = p[n:]
		addr += uint64(n)
	}
}

// PageBytes is the allocation granularity, exported for tests that want to
// exercise page-boundary behaviour.
const PageBytes = 1 << pageBits
