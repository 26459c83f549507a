package callgraph_test

import (
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"portsim/internal/lint/callgraph"
	"portsim/internal/lint/loader"
)

// buildScratch writes a scratch module, loads it, and builds its call graph.
func buildScratch(t *testing.T, files map[string]string) *callgraph.Graph {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := loader.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loader.Load: %v", err)
	}
	return callgraph.Build(pkgs)
}

// find returns the graph node whose display name matches.
func find(t *testing.T, g *callgraph.Graph, display string) *callgraph.Func {
	t.Helper()
	for _, fn := range g.Funcs() {
		if callgraph.DisplayName(fn.Obj) == display {
			return fn
		}
	}
	t.Fatalf("function %s not in graph; have %v", display, names(g))
	return nil
}

func names(g *callgraph.Graph) []string {
	var out []string
	for _, fn := range g.Funcs() {
		out = append(out, callgraph.DisplayName(fn.Obj))
	}
	return out
}

func calleeNames(fn *callgraph.Func) []string {
	var out []string
	for _, c := range fn.Calls {
		out = append(out, callgraph.DisplayName(c.Callee))
	}
	return out
}

func TestDirectAndMethodCalls(t *testing.T) {
	g := buildScratch(t, map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"a.go": `package a

type Box struct{ n int }

func (b *Box) Bump() { b.n++ }

func helper() int { return 1 }

//portlint:hotpath
func Root(b *Box) int {
	b.Bump()
	return helper()
}
`,
	})
	root := find(t, g, "a.Root")
	if !root.Hotpath {
		t.Error("Root should carry the hotpath directive")
	}
	got := calleeNames(root)
	want := []string{"a.(*Box).Bump", "a.helper"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Root calls = %v, want %v", got, want)
	}
}

func TestInterfaceResolution(t *testing.T) {
	g := buildScratch(t, map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"a.go": `package a

type Sink interface{ Emit(int) }

type fast struct{}

func (fast) Emit(int) {}

type slow struct{ buf []int }

func (s *slow) Emit(v int) { s.buf = append(s.buf, v) }

//portlint:hotpath
func Root(s Sink) { s.Emit(1) }
`,
	})
	root := find(t, g, "a.Root")
	got := calleeNames(root)
	// The interface method itself plus both in-repo implementations.
	want := []string{"a.(Sink).Emit", "a.(fast).Emit", "a.(*slow).Emit"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Root calls = %v, want %v", got, want)
	}
	var viaIface int
	for _, c := range root.Calls {
		if c.ViaInterface {
			viaIface++
		}
	}
	if viaIface != 2 {
		t.Errorf("want 2 interface-resolved edges, got %d", viaIface)
	}
}

func TestFuncValueAndLiteralAttribution(t *testing.T) {
	g := buildScratch(t, map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"a.go": `package a

func callback() {}

func inner() {}

func apply(f func()) { f() }

//portlint:hotpath
func Root() {
	apply(callback)     // function value reference
	go func() { inner() }() // literal attributed to Root
}
`,
	})
	root := find(t, g, "a.Root")
	got := calleeNames(root)
	want := []string{"a.apply", "a.callback", "a.inner"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Root calls = %v, want %v", got, want)
	}
}

func TestHotpathClosureChainsAndColdpath(t *testing.T) {
	g := buildScratch(t, map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"a.go": `package a

//portlint:hotpath
func Root() {
	hop1()
	drain()
}

func hop1() { hop2() }

func hop2() {}

//portlint:coldpath runs once at end of simulation, outside the cycle loop
func drain() { expensive() }

func expensive() {}
`,
	})
	cl := g.HotpathClosure(nil)
	byName := make(map[string][]string)
	for _, e := range cl.Entries() {
		byName[callgraph.DisplayName(e.Fn.Obj)] = e.Chain
	}
	wantChains := map[string][]string{
		"a.Root": {"a.Root"},
		"a.hop1": {"a.Root", "a.hop1"},
		"a.hop2": {"a.Root", "a.hop1", "a.hop2"},
	}
	if !reflect.DeepEqual(byName, wantChains) {
		t.Errorf("closure chains = %v, want %v", byName, wantChains)
	}
	if _, in := byName["a.expensive"]; in {
		t.Error("coldpath must stop propagation before a.expensive")
	}
	if drain := find(t, g, "a.drain"); !drain.Coldpath || drain.ColdpathReason == "" {
		t.Error("coldpath directive or its reason not captured")
	}
}

func TestClosureScopeAcrossPackages(t *testing.T) {
	g := buildScratch(t, map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"a/a.go": `package a

import (
	"scratch/inscope"
	"scratch/outscope"
)

//portlint:hotpath
func Root() {
	inscope.Reached()
	outscope.Skipped()
}
`,
		"inscope/b.go":  "package inscope\n\nfunc Reached() {}\n",
		"outscope/c.go": "package outscope\n\nfunc Skipped() {}\n",
	})
	cl := g.HotpathClosure([]string{"scratch/inscope"})
	var got []string
	for _, e := range cl.Entries() {
		got = append(got, callgraph.DisplayName(e.Fn.Obj))
	}
	want := []string{"a.Root", "inscope.Reached"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("closure = %v, want %v", got, want)
	}
}

// TestDeterministicOrder builds the same module twice and asserts identical
// node and edge order — the property the byte-stable JSON output rests on.
func TestDeterministicOrder(t *testing.T) {
	files := map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"a.go": `package a

type Sink interface{ Emit(int) }

type t1 struct{}

func (t1) Emit(int) {}

type t2 struct{}

func (t2) Emit(int) {}

//portlint:hotpath
func Root(s Sink) {
	s.Emit(1)
	aux()
}

func aux() {}
`,
	}
	flatten := func(g *callgraph.Graph) []string {
		var out []string
		for _, fn := range g.Funcs() {
			out = append(out, callgraph.DisplayName(fn.Obj)+"->"+strings.Join(calleeNames(fn), ";"))
		}
		return out
	}
	first := flatten(buildScratch(t, files))
	second := flatten(buildScratch(t, files))
	if !reflect.DeepEqual(first, second) {
		t.Errorf("graph order differs across builds:\n%v\n%v", first, second)
	}
}

func TestDisplayNameForms(t *testing.T) {
	g := buildScratch(t, map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"a.go": `package a

type V struct{}

func (V) ByValue()    {}
func (*V) ByPointer() {}
func Plain()          {}
`,
	})
	want := map[string]bool{
		"a.(V).ByValue":    true,
		"a.(*V).ByPointer": true,
		"a.Plain":          true,
	}
	for _, fn := range g.Funcs() {
		name := callgraph.DisplayName(fn.Obj)
		if !want[name] {
			t.Errorf("unexpected display name %q", name)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("missing display name %q", name)
	}
	var nilFunc *types.Func
	_ = nilFunc // DisplayName requires a non-nil *types.Func by contract
}
