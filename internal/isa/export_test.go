package isa

// NextPC returns the PC the instruction actually transfers control to: the
// target for taken control flow, the fall-through otherwise. The simulator
// asks Redirects and reads Target itself; tests use the combined form.
func (in *Inst) NextPC() uint64 {
	if in.Redirects() {
		return in.Target
	}
	return in.FallThrough()
}
