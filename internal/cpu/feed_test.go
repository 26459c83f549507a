package cpu

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"portsim/internal/config"
	"portsim/internal/diag"
	"portsim/internal/isa"
	"portsim/internal/trace"
	"portsim/internal/workload"
)

// feedTestInsts is the instruction budget of the chunk-boundary tests: a
// multiple of none of the chunk lengths they drive (other than one).
const feedTestInsts = 2_999

// chunkLengths are the input-ring chunk lengths the equivalence tests
// drive: one instruction, a length prime to the fetch width, one short of
// the fetch width, and the default (zero).
func chunkLengths(m *config.Machine) []int {
	return []int{1, 7, m.Core.FetchWidth - 1, 0}
}

// feedTestMachines is every preset plus the wrong-path-fetch model, whose
// stall-time fetches read the mispredicted instruction back from the
// group's arena, and an eight-wide front end, whose lookahead is longer
// than the short chunks.
func feedTestMachines() []config.Machine {
	var ms []config.Machine
	for _, name := range config.PresetNames() {
		ms = append(ms, config.Presets[name]())
	}
	wrongPath := config.Baseline()
	wrongPath.Name = "wrong-path"
	wrongPath.Core.WrongPathFetch = true
	wide := config.Baseline()
	wide.Name = "wide-fetch"
	wide.Core.FetchWidth = 8
	return append(ms, wrongPath, wide)
}

// runChunked runs a core over stream with the given input chunk length.
func runChunked(t *testing.T, m config.Machine, stream trace.Stream, chunkLen int, opts Options) *Result {
	t.Helper()
	c, err := newCore(&m, stream, chunkLen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(opts)
	if err != nil {
		t.Fatalf("chunk length %d: %v", chunkLen, err)
	}
	return res
}

// TestChunkedInputMatchesWholeArena is the chunk-boundary equivalence
// guarantee: a live stream read through the input ring — with chunk
// boundaries every instruction, every seven, every fetch width less one,
// or at the default — must simulate exactly like a whole-arena cursor over
// the same trace, counter for counter. Every preset runs every workload
// and a multiprogrammed stream.
func TestChunkedInputMatchesWholeArena(t *testing.T) {
	opts := Options{MaxInstructions: feedTestInsts, DeadlineCycles: DeadlineFor(feedTestInsts), StallCycles: DefaultStallCycles}
	type source struct {
		name  string
		arena *trace.Arena
		live  func() trace.Stream
	}
	var sources []source
	for _, wl := range workload.Names() {
		prof := mustProfile(t, wl)
		live := func() trace.Stream {
			g, err := workload.New(prof, 42)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		sources = append(sources, source{wl, trace.Materialize(live(), feedTestInsts), live})
	}
	mp := func() trace.Stream {
		s, err := workload.NewMultiprogram(mustProfile(t, "pmake"), 3, 300, 42)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sources = append(sources, source{"pmake-x3", trace.Materialize(mp(), feedTestInsts), mp})

	for _, m := range feedTestMachines() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			for _, src := range sources {
				want := runChunked(t, m, src.arena.NewCursor(), 0, opts)
				for _, n := range chunkLengths(&m) {
					got := runChunked(t, m, src.live(), n, opts)
					compareResults(t, fmt.Sprintf("%s, chunk length %d", src.name, n), want, got)
				}
			}
		})
	}
}

// straightLine is n independent ALU instructions at consecutive PCs from
// 0x1000: with 64-byte lines a four-wide front end fetches them in groups
// of four, so a length of 4k+2 ends two instructions into a group.
func straightLine(n int) []isa.Inst {
	insts := make([]isa.Inst, n)
	for i := range insts {
		insts[i] = isa.Inst{PC: 0x1000 + uint64(4*i), Class: isa.IntALU, Dest: isa.Reg(1 + i%20)}
	}
	return insts
}

// TestChunkedFiniteStreamMatchesWholeArena covers streams that end: the
// end must be noticed on the same cycle whether the last instructions sit
// in a whole arena or in the input ring's final chunk — mid-chunk, and
// mid-fetch-group. The straight-line program ends two instructions into
// a four-wide group, at a length that is a multiple of no chunk length
// driven; the generator prefixes end at ten consecutive lengths, so their
// last groups end every possible way. Limit and SliceStream are not
// Batchers, so the producer drains them one Next at a time.
func TestChunkedFiniteStreamMatchesWholeArena(t *testing.T) {
	opts := Options{DeadlineCycles: 10_000_000, StallCycles: DefaultStallCycles}
	const line = 62
	if line%4 != 2 || line%7 == 0 || line%3 == 0 {
		t.Fatalf("straight-line length %d does not end mid-group and mid-chunk", line)
	}
	for _, m := range []config.Machine{config.Baseline(), config.BestSingle()} {
		prog := straightLine(line)
		want := runChunked(t, m, trace.Materialize(trace.NewSliceStream(prog), line).NewCursor(), 0, opts)
		if want.Instructions != line {
			t.Fatalf("%s: whole arena committed %d of %d instructions", m.Name, want.Instructions, line)
		}
		for _, n := range chunkLengths(&m) {
			got := runChunked(t, m, trace.NewSliceStream(prog), n, opts)
			compareResults(t, fmt.Sprintf("%s straight line, chunk length %d", m.Name, n), want, got)
		}
		for length := uint64(feedTestInsts - 9); length <= feedTestInsts; length++ {
			prefix := func() trace.Stream {
				g, err := workload.New(mustProfile(t, "verilog"), 5)
				if err != nil {
					t.Fatal(err)
				}
				return trace.NewLimit(g, length)
			}
			want := runChunked(t, m, trace.Materialize(prefix(), int(length)).NewCursor(), 0, opts)
			if want.Instructions != length {
				t.Fatalf("%s: whole arena committed %d of %d instructions", m.Name, want.Instructions, length)
			}
			for _, n := range chunkLengths(&m) {
				got := runChunked(t, m, prefix(), n, opts)
				compareResults(t, fmt.Sprintf("%s %d-instruction prefix, chunk length %d", m.Name, length, n), want, got)
			}
		}
	}
}

// panicAfter is a stream that delivers n instructions of inner and panics
// on the next request.
type panicAfter struct {
	inner trace.Stream
	n     int
}

func (s *panicAfter) Next(in *isa.Inst) bool {
	if s.n == 0 {
		panic("stream exploded")
	}
	s.n--
	return s.inner.Next(in)
}

// zeroSizeStoreAt is a stream whose instruction number at (zero-based) is
// a zero-size store, which the store buffer rejects with a panic at commit
// — a panic on the simulating goroutine, not the producer.
type zeroSizeStoreAt struct {
	inner trace.Stream
	at    int
}

func (s *zeroSizeStoreAt) Next(in *isa.Inst) bool {
	if !s.inner.Next(in) {
		return false
	}
	if s.at == 0 {
		in.Class, in.Size = isa.Store, 0
	}
	s.at--
	return true
}

// quietGoroutines returns the goroutine count once goroutines of earlier
// tests have finished tearing down: two readings 5 ms apart agree.
func quietGoroutines() int {
	n := runtime.NumGoroutine()
	for {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
}

// settleGoroutines waits briefly for the goroutine count to return to
// want: a joined goroutine has signalled its exit but may not yet have
// been torn down. A count below want is fine — a goroutine of an earlier
// test may have finished tearing down meanwhile.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, want %d: the input producer outlived its run", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunJoinsProducer checks that Run stops and joins the input producer
// on every way out: a budget reached, a stream that ends, the deadline
// guard, the stall watchdog, a panic on the simulating goroutine, and a
// panic in the source, forwarded from the producer.
func TestRunJoinsProducer(t *testing.T) {
	gen := func() trace.Stream {
		g, err := workload.New(mustProfile(t, "compress"), 42)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	wedged := config.Baseline()
	wedged.Ports.FaultStuckDrain = true
	cases := []struct {
		name    string
		m       config.Machine
		stream  func() trace.Stream
		opts    Options
		wantErr error
		panics  string
	}{
		{"budget", config.Baseline(), gen, Options{MaxInstructions: 20_000}, nil, ""},
		{"stream-end", config.Baseline(), func() trace.Stream { return trace.NewLimit(gen(), 20_000) }, Options{}, nil, ""},
		{"deadline", config.Baseline(), gen, Options{MaxInstructions: 20_000, DeadlineCycles: 500}, ErrDeadline, ""},
		{"watchdog", wedged, gen, Options{MaxInstructions: 20_000, StallCycles: 2_000}, ErrStall, ""},
		{"consumer-panic", config.Baseline(), func() trace.Stream { return &zeroSizeStoreAt{inner: gen(), at: 5_000} }, Options{MaxInstructions: 20_000}, nil, "size"},
		{"producer-panic", config.Baseline(), func() trace.Stream { return &panicAfter{inner: gen(), n: 5_000} }, Options{MaxInstructions: 20_000}, nil, "stream exploded"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := quietGoroutines()
			m := tc.m
			c, err := New(&m, tc.stream())
			if err != nil {
				t.Fatal(err)
			}
			var recovered any
			func() {
				defer func() { recovered = recover() }()
				_, err = c.Run(tc.opts)
			}()
			settleGoroutines(t, base)
			switch {
			case tc.panics != "":
				if recovered == nil || !strings.Contains(fmt.Sprint(recovered), tc.panics) {
					t.Fatalf("Run panicked with %v, want a panic mentioning %q", recovered, tc.panics)
				}
			case recovered != nil:
				t.Fatalf("Run panicked: %v", recovered)
			case tc.wantErr != nil && !errors.Is(err, tc.wantErr):
				t.Fatalf("Run returned %v, want %v", err, tc.wantErr)
			case tc.wantErr == nil && err != nil:
				t.Fatal(err)
			}
		})
	}
}

// TestProducerPanicForwardedAtItsInstruction checks where a source panic
// surfaces: exactly when fetch asks for the instruction whose Next
// panicked, so everything before it was fetched — the recorder's last
// fetch is that instruction's predecessor — and the forwarded panic
// carries the producer's stack and the original value. The panic point
// sits one before, on and one after a chunk boundary.
func TestProducerPanicForwardedAtItsInstruction(t *testing.T) {
	const chunk = 64
	for _, n := range []int{chunk - 1, chunk, chunk + 1} {
		g, err := workload.New(mustProfile(t, "compress"), 42)
		if err != nil {
			t.Fatal(err)
		}
		m := config.Baseline()
		c, err := newCore(&m, &panicAfter{inner: g, n: n}, chunk)
		if err != nil {
			t.Fatal(err)
		}
		rec := diag.NewRecorder(0)
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			_, _ = c.Run(Options{MaxInstructions: 1_000, Recorder: rec})
		}()
		p, ok := recovered.(*diag.Panic)
		if !ok {
			t.Fatalf("panic after %d: Run panicked with %T %v, want a forwarded *diag.Panic", n, recovered, recovered)
		}
		if p.Error() != "stream exploded" || !strings.Contains(p.Stack, "panicAfter") {
			t.Errorf("panic after %d: forwarded %q with stack %q", n, p.Error(), p.Stack)
		}
		last := uint64(0)
		for _, ev := range rec.Events() {
			if ev.Kind == diag.EventFetch {
				last = ev.Seq
			}
		}
		if last != uint64(n) {
			t.Errorf("panic after %d: last fetch was seq %d, want %d", n, last, n)
		}
	}
}

// TestNewStartsNoGoroutine checks that building a core over a live stream
// starts nothing: the producer belongs to Run.
func TestNewStartsNoGoroutine(t *testing.T) {
	base := quietGoroutines()
	m := config.Baseline()
	for i := 0; i < 4; i++ {
		g, err := workload.New(mustProfile(t, "compress"), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := New(&m, g); err != nil {
			t.Fatal(err)
		}
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after New, want at most %d", n, base)
	}
}
