package trace

import (
	"math"

	"portsim/internal/diag"
	"portsim/internal/isa"
)

// Ring geometry of a Feed over a live stream: feedDepth chunks of
// feedChunk instructions each (plus the consumer's lookahead), under
// 256 KiB of arena storage for the default four-wide front end.
const (
	feedChunk = 2048
	feedDepth = 4
)

// feedBatch is how many instructions the producer pulls per NextBatch call.
const feedBatch = 128

// chunk is one slot of a Feed's ring: an arena holding the chunk's own
// instructions followed by a copy of the next chunk's first lookahead
// instructions, so a consumer positioned anywhere among the own
// instructions can read a whole fetch group without crossing into another
// arena.
type chunk struct {
	a Arena
	// final marks the last chunk of the stream: the source ended, or
	// panicked, while this chunk was filling. Everything in a final chunk
	// belongs to it; no chunk follows.
	final bool
	// fault is the source's panic, forwarded to the consumer when it asks
	// for the instruction at a.Len() — the one whose Next panicked.
	fault *diag.Panic
}

// A Feed delivers an instruction stream to one consumer (the core's fetch
// stage) as arenas, so that every stream is read the same way: straight
// from packed arrays, a whole fetch group at a time.
//
// A whole-arena *Cursor is delivered as it is, as a single final chunk,
// with no goroutine and no copy. Any other stream is delivered through a
// fixed ring of reusable chunk arenas: a producer goroutine drains the
// source into free chunks and hands them over in order, and the consumer
// returns each chunk once it has moved past it. Generation therefore
// overlaps simulation. Because a chunk repeats the next chunk's first
// lookahead instructions, a fetch group that straddles a chunk boundary is
// read, and cut, from one arena exactly as a whole arena would read it.
//
// The source's output must not depend on when it is called — true of the
// workload generators and of every replay — since the producer runs
// ahead of the consumer by up to the ring's capacity. A panic in the
// source is captured on the producer (diag.Capture) and re-raised on the
// consumer by Fault, when the consumer reaches the instruction whose Next
// panicked. A Batcher source is drained a batch at a time, so a panic
// inside NextBatch surfaces at the first instruction of that batch.
//
// Lifecycle: NewFeed binds the source and allocates no ring; Start starts
// (or resumes) the producer, allocating the ring on a Feed's first start
// only; Stop stops and joins it. Instructions already produced survive a
// Stop, so a later Start continues the stream where the consumer left it.
type Feed struct {
	// Consumer state. cur is the read position: the caller's cursor for a
	// whole arena, or own, re-pointed at each chunk as it arrives. limit
	// is the count of the current chunk's own instructions, past which
	// Advance moves to the next chunk (MaxInt when nothing follows).
	cur   *Cursor
	own   Cursor
	limit int
	held  *chunk

	lookahead, chunkLen int

	// The ring and its hand-over channels, allocated on the first Start.
	// free and full each hold up to the whole ring, so neither side ever
	// blocks on a send. stop and exited carry one token each: a stop
	// request to the producer and its exit back.
	ring         []chunk
	free, full   chan *chunk
	stop, exited chan struct{}
	running      bool

	// Producer state: owned by the producer goroutine while it runs, by
	// the consumer otherwise (Stop joins before anyone reads it).
	src   Stream
	batch Batcher
	buf   []isa.Inst
	fill  *chunk // a filled chunk not yet handed over
	prev  *chunk // the last chunk handed over, whose tail opens the next
	done  bool   // the final chunk has been handed over
}

// NewFeed returns a Feed over src whose consumer reads up to lookahead
// instructions past its position (a fetch group's width, less one).
// chunkLen is the ring's chunk length in instructions; zero or less
// selects the default. Tests pass small lengths to put chunk boundaries
// everywhere; production callers pass zero.
func NewFeed(src Stream, lookahead, chunkLen int) *Feed {
	if chunkLen <= 0 {
		chunkLen = feedChunk
	}
	f := &Feed{lookahead: lookahead, chunkLen: chunkLen}
	if cur, ok := src.(*Cursor); ok {
		f.cur, f.limit = cur, math.MaxInt
		return f
	}
	f.src = src
	f.batch, _ = src.(Batcher)
	f.cur = &f.own
	return f
}

// Start starts the producer, or resumes it after a Stop, and waits for the
// first chunk. It is a no-op for a whole arena and once the stream's final
// chunk has been handed over.
func (f *Feed) Start() {
	if f.src == nil || f.running {
		return
	}
	if f.ring == nil {
		f.allocRing()
	}
	if !f.done {
		f.running = true
		go f.produce()
	}
	if f.held == nil {
		f.take(<-f.full)
	}
}

// Stop stops the producer and waits for it to exit. It is a no-op when the
// producer is not running.
func (f *Feed) Stop() {
	if !f.running {
		return
	}
	f.stop <- struct{}{}
	<-f.exited
	f.running = false
	// A producer that handed over the final chunk exits without reading
	// the request; drop it so the next Start is not stopped at once.
	select {
	case <-f.stop:
	default:
	}
}

// allocRing allocates the ring: one backing array per arena column, carved
// into capacity-limited chunks so an append can never spill into a
// neighbour.
func (f *Feed) allocRing() {
	size := f.chunkLen + f.lookahead
	n := feedDepth * size
	pc, addr, target := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	bytes := make([]uint8, 6*n)
	f.ring = make([]chunk, feedDepth)
	f.free = make(chan *chunk, feedDepth)
	f.full = make(chan *chunk, feedDepth)
	f.stop = make(chan struct{}, 1)
	f.exited = make(chan struct{}, 1)
	f.buf = make([]isa.Inst, feedBatch)
	for i := range f.ring {
		lo, hi := i*size, (i+1)*size
		col := func(k int) []uint8 { return bytes[k*n+lo : k*n+lo : k*n+hi] }
		f.ring[i].a = Arena{
			pc: pc[lo:lo:hi], addr: addr[lo:lo:hi], target: target[lo:lo:hi],
			class: col(0), dest: col(1), src1: col(2), src2: col(3), size: col(4), meta: col(5),
		}
		f.free <- &f.ring[i]
	}
}

// take makes c the current chunk, continuing at the position the consumer
// reached past the previous chunk's own instructions.
func (f *Feed) take(c *chunk) {
	pos := 0
	if f.held != nil {
		pos = f.own.pos - f.limit
		f.free <- f.held
	}
	f.held = c
	f.own = Cursor{a: &c.a, pos: pos}
	f.limit = f.chunkLen
	if c.final {
		f.limit = math.MaxInt
	}
}

// Window returns the current arena and the consumer's position in it. At
// least lookahead+1 instructions are readable from pos unless the stream
// ends within them.
//
//portlint:hotpath
func (f *Feed) Window() (*Arena, int) { return f.cur.a, f.cur.pos }

// Advance consumes n instructions, moving on to the next chunk once the
// position passes the current chunk's own instructions. The consumer must
// not touch the previous chunk's arena after an Advance.
//
//portlint:hotpath
func (f *Feed) Advance(n int) {
	f.cur.pos += n
	if f.cur.pos >= f.limit {
		f.nextChunk()
	}
}

// nextChunk moves on to the chunk holding the consumer's position.
func (f *Feed) nextChunk() {
	for f.cur.pos >= f.limit {
		f.take(<-f.full)
	}
}

// Fault re-raises, on the consumer, the panic the source raised on the
// producer, if any. The consumer calls it when it asks for the instruction
// past the end of the stream: when the source panicked, that is the
// instruction whose Next panicked.
func (f *Feed) Fault() {
	if f.held != nil && f.held.fault != nil {
		panic(f.held.fault)
	}
}

// produce is the producer goroutine: it fills free chunks from the source
// and hands them over in order until the final chunk is out or Stop asks
// it to exit.
func (f *Feed) produce() {
	defer func() { f.exited <- struct{}{} }()
	for !f.done {
		if f.fill == nil {
			select {
			case f.fill = <-f.free:
			case <-f.stop:
				return
			}
			f.fillChunk(f.fill)
		}
		select {
		case f.full <- f.fill:
		case <-f.stop:
			return
		}
		f.done = f.fill.final
		f.prev, f.fill = f.fill, nil
	}
}

// fillChunk refills c: first the previous chunk's lookahead tail, then
// fresh instructions from the source until c holds its own instructions
// plus the next chunk's lookahead. A short fill, or a panic, makes c final.
func (f *Feed) fillChunk(c *chunk) {
	c.a.truncate()
	c.final, c.fault = false, nil
	if f.prev != nil {
		c.a.appendRange(&f.prev.a, f.chunkLen, f.prev.a.Len())
	}
	want := f.chunkLen + f.lookahead
	c.fault = diag.Capture(func() { f.pull(&c.a, want) })
	c.final = c.fault != nil || c.a.Len() < want
}

// pull appends source instructions to a until it holds want, or the
// source ends.
func (f *Feed) pull(a *Arena, want int) {
	if f.batch == nil {
		var in isa.Inst
		for a.Len() < want && f.src.Next(&in) {
			a.push(&in)
		}
		return
	}
	for a.Len() < want {
		k := min(want-a.Len(), len(f.buf))
		got := f.batch.NextBatch(f.buf[:k])
		for i := range f.buf[:got] {
			a.push(&f.buf[i])
		}
		if got < k {
			return
		}
	}
}
