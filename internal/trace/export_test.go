package trace

import "portsim/internal/isa"

// Tee passes a stream through while appending every instruction to a slice,
// for capturing generator output in tests.
type Tee struct {
	inner    Stream
	Captured []isa.Inst
}

// NewTee returns a capturing wrapper around inner.
func NewTee(inner Stream) *Tee { return &Tee{inner: inner} }

// Next implements Stream.
func (t *Tee) Next(in *isa.Inst) bool {
	if !t.inner.Next(in) {
		return false
	}
	t.Captured = append(t.Captured, *in)
	return true
}
