package bpred

import (
	"testing"
	"testing/quick"

	"portsim/internal/config"
)

func TestCounterSaturation(t *testing.T) {
	c := counter(0)
	for i := 0; i < 10; i++ {
		c = c.train(false)
	}
	if c != 0 {
		t.Errorf("counter under-saturated to %d", c)
	}
	for i := 0; i < 10; i++ {
		c = c.train(true)
	}
	if c != 3 {
		t.Errorf("counter over-saturated to %d", c)
	}
	if !c.taken() {
		t.Error("saturated-taken counter predicts not-taken")
	}
}

func TestCounterHysteresis(t *testing.T) {
	// A strongly-taken counter must survive one not-taken outcome.
	c := counter(3).train(false)
	if !c.taken() {
		t.Error("single not-taken flipped a strong counter")
	}
	if c.train(false).taken() {
		t.Error("two not-takens did not flip the counter")
	}
}

func TestStatic(t *testing.T) {
	var s Static
	if s.Predict(0x1000) {
		t.Error("static predictor predicted taken")
	}
	s.Update(0x1000, true) // must not panic
}

func TestBimodalLearnsAlwaysTaken(t *testing.T) {
	b, err := NewBimodal(64)
	if err != nil {
		t.Fatal(err)
	}
	pc := uint64(0x4000)
	for i := 0; i < 4; i++ {
		b.Update(pc, true)
	}
	if !b.Predict(pc) {
		t.Error("bimodal failed to learn an always-taken branch")
	}
	other := uint64(0x4004)
	if b.Predict(other) {
		t.Error("training leaked to an unrelated, non-aliased branch")
	}
}

func TestBimodalAliasing(t *testing.T) {
	b, err := NewBimodal(16)
	if err != nil {
		t.Fatal(err)
	}
	// PCs 16 words apart alias in a 16-entry table.
	a, c := uint64(0x1000), uint64(0x1000+16*4)
	for i := 0; i < 4; i++ {
		b.Update(a, true)
	}
	if !b.Predict(c) {
		t.Error("aliased branches must share a counter")
	}
}

func TestBimodalRejectsBadSize(t *testing.T) {
	for _, n := range []int{0, -1, 3, 100} {
		if _, err := NewBimodal(n); err == nil {
			t.Errorf("NewBimodal(%d) accepted", n)
		}
	}
}

func TestGshareLearnsPattern(t *testing.T) {
	g, err := NewGshare(1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	// A branch alternating T,NT,T,NT is unpredictable bimodally but
	// perfectly predictable with history. Train for a few periods, then
	// check accuracy over one more period.
	pc := uint64(0x8000)
	for i := 0; i < 200; i++ {
		g.Update(pc, i%2 == 0)
	}
	correct := 0
	for i := 200; i < 220; i++ {
		want := i%2 == 0
		if g.Predict(pc) == want {
			correct++
		}
		g.Update(pc, want)
	}
	if correct < 19 {
		t.Errorf("gshare predicted %d/20 of an alternating pattern", correct)
	}
}

func TestGshareRejectsBadConfig(t *testing.T) {
	if _, err := NewGshare(1000, 8); err == nil {
		t.Error("non-power-of-two table accepted")
	}
	if _, err := NewGshare(1024, 0); err == nil {
		t.Error("zero history accepted")
	}
	if _, err := NewGshare(1024, 31); err == nil {
		t.Error("oversized history accepted")
	}
}

func TestBTBHitAfterInsert(t *testing.T) {
	b, err := NewBTB(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	b.Insert(0x1000, 0x2000)
	if tgt, ok := b.Lookup(0x1000); !ok || tgt != 0x2000 {
		t.Errorf("Lookup = (%#x,%v), want (0x2000,true)", tgt, ok)
	}
	if _, ok := b.Lookup(0x1004); ok {
		t.Error("lookup of never-inserted PC hit")
	}
}

func TestBTBUpdateExisting(t *testing.T) {
	b, _ := NewBTB(16, 2)
	b.Insert(0x1000, 0x2000)
	b.Insert(0x1000, 0x3000)
	if tgt, _ := b.Lookup(0x1000); tgt != 0x3000 {
		t.Errorf("target not updated, got %#x", tgt)
	}
}

func TestBTBLRUReplacement(t *testing.T) {
	// 2-way, 2 sets => set = (pc>>2)&1. PCs 0x0, 0x8, 0x10 all map to set 0.
	b, err := NewBTB(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	b.Insert(0x0, 0xa)
	b.Insert(0x8, 0xb)
	b.Lookup(0x0) // make 0x0 most recent
	b.Insert(0x10, 0xc)
	if _, ok := b.Lookup(0x8); ok {
		t.Error("LRU entry 0x8 survived replacement")
	}
	if _, ok := b.Lookup(0x0); !ok {
		t.Error("MRU entry 0x0 was evicted")
	}
	if tgt, ok := b.Lookup(0x10); !ok || tgt != 0xc {
		t.Error("newly inserted entry missing")
	}
}

func TestBTBDisabled(t *testing.T) {
	b, err := NewBTB(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.Insert(0x1000, 0x2000)
	if _, ok := b.Lookup(0x1000); ok {
		t.Error("disabled BTB returned a hit")
	}
}

func TestBTBRejectsBadGeometry(t *testing.T) {
	if _, err := NewBTB(10, 3); err == nil {
		t.Error("entries not divisible by ways accepted")
	}
	if _, err := NewBTB(24, 2); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
}

func TestRASLIFO(t *testing.T) {
	r := NewRAS(4)
	for _, a := range []uint64{1, 2, 3} {
		r.Push(a)
	}
	for want := uint64(3); want >= 1; want-- {
		got, ok := r.Pop()
		if !ok || got != want {
			t.Fatalf("Pop = (%d,%v), want (%d,true)", got, ok, want)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("pop of empty RAS succeeded")
	}
}

func TestRASOverflowOverwritesOldest(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if got, _ := r.Pop(); got != 3 {
		t.Errorf("first pop = %d, want 3", got)
	}
	if got, _ := r.Pop(); got != 2 {
		t.Errorf("second pop = %d, want 2", got)
	}
	if _, ok := r.Pop(); ok {
		t.Error("overwritten entry resurfaced")
	}
}

func TestRASDisabled(t *testing.T) {
	r := NewRAS(0)
	r.Push(5)
	if _, ok := r.Pop(); ok {
		t.Error("zero-depth RAS returned an entry")
	}
}

// TestRASMatchesReference property: against an unbounded reference stack,
// the RAS agrees on every pop as long as its depth was never exceeded by the
// live stack depth since the popped entry was pushed. We check the simpler,
// still strong property: with a deep RAS (depth >= pushes), behaviour is
// exactly a stack.
func TestRASMatchesReference(t *testing.T) {
	f := func(ops []uint8) bool {
		r := NewRAS(len(ops) + 1)
		var ref []uint64
		for i, op := range ops {
			if op%3 != 0 { // push twice as often as pop
				v := uint64(i) + 100
				r.Push(v)
				ref = append(ref, v)
			} else {
				got, ok := r.Pop()
				if len(ref) == 0 {
					if ok {
						return false
					}
					continue
				}
				want := ref[len(ref)-1]
				ref = ref[:len(ref)-1]
				if !ok || got != want {
					return false
				}
			}
		}
		return r.top == len(ref)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewUnitFromConfig(t *testing.T) {
	cfg := config.Baseline().Pred
	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := u.Dir.(*Gshare); !ok {
		t.Errorf("baseline predictor is %T, want *Gshare", u.Dir)
	}
	if u.BTB == nil || u.RAS == nil {
		t.Error("unit missing BTB or RAS")
	}
	for _, kind := range []string{"static", "bimodal"} {
		c := cfg
		c.Kind = kind
		if _, err := New(c); err != nil {
			t.Errorf("kind %q rejected: %v", kind, err)
		}
	}
	bad := cfg
	bad.Kind = "neural"
	if _, err := New(bad); err == nil {
		t.Error("unknown predictor kind accepted")
	}
	bad = cfg
	bad.BTBEntries, bad.BTBAssoc = 10, 3
	if _, err := New(bad); err == nil {
		t.Error("bad BTB geometry accepted")
	}
	bad = cfg
	bad.TableEntries = 1000
	if _, err := New(bad); err == nil {
		t.Error("bad table size accepted")
	}
}

func TestGshareBeatsBimodalOnCorrelated(t *testing.T) {
	// Sanity check the motivation for the baseline predictor: on a
	// history-correlated pattern, gshare should beat bimodal clearly.
	g, _ := NewGshare(4096, 10)
	b, _ := NewBimodal(4096)
	pc := uint64(0x100)
	pattern := []bool{true, true, false, true, false, false}
	gc, bc := 0, 0
	n := 3000
	for i := 0; i < n; i++ {
		want := pattern[i%len(pattern)]
		if g.Predict(pc) == want {
			gc++
		}
		if b.Predict(pc) == want {
			bc++
		}
		g.Update(pc, want)
		b.Update(pc, want)
	}
	if gc <= bc {
		t.Errorf("gshare (%d/%d) did not beat bimodal (%d/%d) on a periodic pattern", gc, n, bc, n)
	}
	if float64(gc)/float64(n) < 0.9 {
		t.Errorf("gshare accuracy %.2f too low on a learnable pattern", float64(gc)/float64(n))
	}
}
