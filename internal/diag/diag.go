// Package diag provides the simulator's flight recorder: a fixed-size ring
// buffer of recent pipeline events (fetch, issue, port grant, store drain,
// commit, stall, reject), each stamped with the simulated cycle. The
// recorder exists for failure forensics — when an experiment cell panics,
// wedges or blows its cycle deadline, the last few hundred events show what
// the pipeline was doing when it died, without re-running the simulation
// under a debugger.
//
// Recording is strictly passive (no simulation state is read back out of
// the recorder) and a nil *Recorder is a valid, disabled recorder: every
// method is nil-safe, so the hot simulation loop pays one pointer test per
// event site when the recorder is off. The experiment engine leaves it off
// by default and switches it on for fault-injection runs and `portbench
// -repro` replays.
package diag

import (
	"fmt"
	"runtime/debug"
	"strings"
)

// EventKind classifies one pipeline event.
type EventKind uint8

// Pipeline event kinds.
const (
	// EventFetch: an instruction entered the fetch buffer. Seq is its
	// fetch sequence number, Addr its PC.
	EventFetch EventKind = iota
	// EventIssue: an instruction started execution. Addr is its memory
	// address for loads/stores, zero otherwise.
	EventIssue
	// EventGrant: a load claimed a cache-port slot. Addr is the access
	// address.
	EventGrant
	// EventDrain: a store-buffer entry claimed a port slot for its cache
	// write. Seq is the entry's store-buffer sequence number, Addr the
	// chunk address.
	EventDrain
	// EventCommit: an instruction retired. Addr is its PC.
	EventCommit
	// EventStall: commit was blocked this cycle (head-of-ROB store could
	// not enter the store buffer). Seq is the blocked instruction, Addr
	// its store address.
	EventStall
	// EventReject: a load offered to the memory port was refused. Addr is
	// the access address.
	EventReject
	// EventCPI: the cycle-accounting classification changed bucket. Seq is
	// the new cpustack.Bucket index; Addr is unused. Recorded only on
	// transitions, so a traced cell's timeline carries one event per
	// attribution phase instead of one per cycle.
	EventCPI

	numKinds
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventFetch:
		return "fetch"
	case EventIssue:
		return "issue"
	case EventGrant:
		return "port-grant"
	case EventDrain:
		return "store-drain"
	case EventCommit:
		return "commit"
	case EventStall:
		return "commit-stall"
	case EventReject:
		return "port-reject"
	case EventCPI:
		return "cpi-bucket"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded pipeline event. The fields are fixed-width so
// recording never allocates.
type Event struct {
	// Cycle is the simulated cycle the event occurred on.
	Cycle uint64
	// Kind classifies the event.
	Kind EventKind
	// Seq is the instruction (or store-buffer entry) sequence number.
	Seq uint64
	// Addr is the PC or data address the event concerns, zero when the
	// event has no address.
	Addr uint64
}

// String renders the event on one line.
func (e Event) String() string {
	return fmt.Sprintf("cycle %d: %-11s seq=%d addr=%#x", e.Cycle, e.Kind, e.Seq, e.Addr)
}

// DefaultDepth is the ring capacity used when NewRecorder is given a
// non-positive depth. It comfortably exceeds the 64-event minimum a failure
// report promises while staying small enough to embed in error values.
const DefaultDepth = 256

// Recorder is the flight recorder: a fixed-capacity ring over Events. The
// zero of *Recorder (nil) is a disabled recorder; all methods tolerate it.
// A Recorder is not safe for concurrent use — each simulated core owns its
// own, matching the one-goroutine-per-simulation execution model.
//
// The ring invariant that the trace exporter depends on: event number n
// (zero-based, in recording order) lives at buf[n % depth]. Every derived
// quantity — length, write position, oldest retained event — is computed
// from the single monotonic counter total, so chronological reassembly
// after wraparound cannot disagree with the write path.
type Recorder struct {
	buf   []Event // full-length ring storage, indexed by total % depth
	total uint64  // events ever recorded
}

// NewRecorder returns a recorder retaining the last depth events
// (DefaultDepth when depth is not positive).
func NewRecorder(depth int) *Recorder {
	if depth <= 0 {
		depth = DefaultDepth
	}
	return &Recorder{buf: make([]Event, depth)}
}

// Record appends one event, overwriting the oldest once the ring is full.
// It is a no-op on a nil recorder and never allocates.
func (r *Recorder) Record(cycle uint64, kind EventKind, seq, addr uint64) {
	if r == nil {
		return
	}
	r.buf[r.total%uint64(len(r.buf))] = Event{Cycle: cycle, Kind: kind, Seq: seq, Addr: addr}
	r.total++
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	if r.total < uint64(len(r.buf)) {
		return int(r.total)
	}
	return len(r.buf)
}

// Total returns the number of events ever recorded, including overwritten
// ones.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Dropped returns the number of events lost to ring wraparound, so a trace
// export can state exactly how much history precedes its first event.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	depth := uint64(len(r.buf))
	if r.total <= depth {
		return 0
	}
	return r.total - depth
}

// Events returns the retained events oldest-first, as a copy safe to hold
// after the recorder keeps recording. It returns nil on a disabled or empty
// recorder.
//
// Ordering: event n sits at buf[n % depth], so once the ring has wrapped,
// the oldest retained event (number total-depth) occupies the slot the next
// write would claim, buf[total % depth]. Splitting there yields the events
// in exact recording order — and therefore non-decreasing cycle order,
// since cycles only move forward while recording.
func (r *Recorder) Events() []Event {
	n := r.Len()
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	if r.total > uint64(len(r.buf)) {
		start := int(r.total % uint64(len(r.buf)))
		out = append(out, r.buf[start:]...)
		out = append(out, r.buf[:start]...)
		return out
	}
	return append(out, r.buf[:n]...)
}

// FormatEvents renders events one per line, for inclusion in failure
// reports.
func FormatEvents(events []Event) string {
	if len(events) == 0 {
		return "(no flight-recorder events; recorder disabled for this run)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "last %d flight-recorder events (oldest first):\n", len(events))
	for _, ev := range events {
		b.WriteString("  ")
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n")
}

// Panic is a panic captured on one goroutine so that another can re-raise
// it: the instruction-stream producer captures a source panic, and the
// simulating goroutine re-raises it where the stream reaches the
// instruction that panicked, so the cell crash boundary contains it like
// any other simulation panic.
type Panic struct {
	// Value is the value the producer panicked with.
	Value any
	// Stack is the panicking goroutine's stack at the panic.
	Stack string
}

// Error renders the original panic value alone, so a contained forwarded
// panic reads exactly like the same panic raised in place.
func (p *Panic) Error() string { return fmt.Sprint(p.Value) }

// Capture calls fn and returns the panic it raised, with the panicking
// goroutine's stack, or nil when fn returns normally.
func Capture(fn func()) (p *Panic) {
	defer func() {
		if v := recover(); v != nil {
			p = &Panic{Value: v, Stack: string(debug.Stack())}
		}
	}()
	fn()
	return nil
}
