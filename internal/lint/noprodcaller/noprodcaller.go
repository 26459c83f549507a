// Package noprodcaller implements the "no production caller, no code" gate:
// a whole-module analyzer that reports every function no production root
// reaches through the static call graph. Code that only tests call is
// either deleted or moved into a _test.go file; what must stay (a reference
// implementation tests compare against, a helper other packages' tests
// import) carries
//
//	//portlint:ignore noprodcaller <reason>
//
// on the line above its declaration. A suppressed function counts as a
// root, so one directive also covers the helpers only it calls.
//
// The roots are the production entry points of the module:
//
//   - the main function of every package under cmd/ and examples/;
//   - every exported function and method of the module's root package
//     (the library API);
//   - init functions, and every function referenced from a package-level
//     declaration, including calls inside function literals stored there;
//   - methods that satisfy a standard-library interface by name (String,
//     Error, Read, ServeHTTP, ...), which the standard library calls
//     through interfaces the call graph does not see;
//   - every in-repo function referenced by the perfbench module, a
//     separate module under the root that imports internal packages. It
//     is loaded from <module root>/perfbench when that directory holds a
//     go.mod.
//
// The analysis only runs on a load that contains these roots: the module's
// root package and at least one main under cmd/ or examples/. A partial
// load (portlint ./internal/..., a fixture directory) cannot tell an orphan
// from a function whose caller was not loaded, so it reports nothing.
package noprodcaller

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"portsim/internal/lint/analysis"
	"portsim/internal/lint/callgraph"
	"portsim/internal/lint/loader"
)

// Analyzer is the noprodcaller analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "noprodcaller",
	Doc: "reports functions that no production root (cmd/ and examples/ mains, the root " +
		"package's exported API, init and package-level references, perfbench) reaches; " +
		"delete them or move them into _test.go files",
	RunModule: runModule,
}

// stdlibMethods are method names the standard library calls through its
// own interfaces (fmt.Stringer, error, json.Marshaler, http.Handler,
// flag.Value, sort.Interface, io.Reader/Writer/Closer).
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
	"Set": true, "IsBoolFlag": true,
	"Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "Close": true,
}

func runModule(pass *analysis.ModulePass) error {
	root := rootPackage(pass.Pkgs)
	if root == nil || !hasMain(pass.Pkgs, root.Path) {
		return nil // partial load: the roots are not all here
	}
	g := callgraph.Build(pass.Pkgs)

	var roots []*callgraph.Func
	for _, fn := range g.Funcs() {
		if isRoot(fn, root.Path) {
			roots = append(roots, fn)
		}
	}
	for _, c := range g.PackageRefs() {
		if fn := g.Lookup(c.Callee); fn != nil {
			roots = append(roots, fn)
		}
	}
	external, err := perfbenchRefs(g, root.Dir)
	if err != nil {
		return err
	}
	roots = append(roots, external...)
	reached := reach(g, roots)

	// Suppressed orphans are roots for their callees but are still
	// reported, so the driver marks them suppressed and the -suppressions
	// audit sees each directive shield a live finding. A directive covers
	// its own line and the one below, as the driver applies it.
	type line struct {
		file string
		n    int
	}
	directives := make(map[line]bool)
	for _, d := range analysis.Directives(pass.Pkgs) {
		if slices.Contains(d.Analyzers, pass.Analyzer.Name) {
			directives[line{d.Position.Filename, d.Position.Line}] = true
		}
	}
	ignored := func(fn *callgraph.Func) bool {
		pos := pass.Fset.Position(fn.Decl.Pos())
		return directives[line{pos.Filename, pos.Line}] || directives[line{pos.Filename, pos.Line - 1}]
	}
	var suppressed []*callgraph.Func
	for _, fn := range g.Funcs() {
		if !reached[fn] && ignored(fn) {
			suppressed = append(suppressed, fn)
		}
	}
	covered := reach(g, suppressed)
	for _, fn := range g.Funcs() {
		if reached[fn] || covered[fn] && !ignored(fn) {
			continue
		}
		pass.Reportf(fn.Decl.Pos(), "%s has no production caller: no main, root-package API, "+
			"package-level reference or perfbench call reaches it; delete it or move it into a _test.go file",
			callgraph.DisplayName(fn.Obj))
	}
	return nil
}

// rootPackage returns the loaded package every other loaded package sits
// under (the module's root package in a whole-module load), or nil.
func rootPackage(pkgs []*analysis.Package) *analysis.Package {
	for _, cand := range pkgs {
		if cand.Types.Name() == "main" {
			continue
		}
		all := true
		for _, p := range pkgs {
			if p.Path != cand.Path && !strings.HasPrefix(p.Path, cand.Path+"/") {
				all = false
				break
			}
		}
		if all {
			return cand
		}
	}
	return nil
}

// hasMain reports whether a main package under cmd/ or examples/ is loaded.
func hasMain(pkgs []*analysis.Package, rootPath string) bool {
	for _, p := range pkgs {
		if isCommand(p, rootPath) {
			return true
		}
	}
	return false
}

func isCommand(p *analysis.Package, rootPath string) bool {
	return p.Types.Name() == "main" &&
		(strings.HasPrefix(p.Path, rootPath+"/cmd/") || strings.HasPrefix(p.Path, rootPath+"/examples/"))
}

// isRoot reports whether a declared function is a production entry point
// by itself.
func isRoot(fn *callgraph.Func, rootPath string) bool {
	name := fn.Decl.Name.Name
	method := fn.Decl.Recv != nil
	switch {
	case !method && name == "init":
		return true
	case !method && name == "main":
		return isCommand(fn.Pkg, rootPath)
	case method && stdlibMethods[name]:
		return true
	}
	return fn.Pkg.Path == rootPath && ast.IsExported(name)
}

// perfbenchRefs loads the perfbench module under the module root, when
// present, and returns the functions of g it references.
func perfbenchRefs(g *callgraph.Graph, moduleDir string) ([]*callgraph.Func, error) {
	dir := filepath.Join(moduleDir, "perfbench")
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
		return nil, nil
	}
	pkgs, err := loader.Load(dir, "./...")
	if err != nil {
		return nil, fmt.Errorf("loading perfbench roots: %v", err)
	}
	pg := callgraph.Build(pkgs)
	calls := pg.PackageRefs()
	for _, fn := range pg.Funcs() {
		calls = append(calls, fn.Calls...)
	}
	var out []*callgraph.Func
	for _, c := range calls {
		if fn := g.Lookup(c.Callee); fn != nil {
			out = append(out, fn)
		}
	}
	return out, nil
}

// reach returns every function reachable from the given ones, themselves
// included.
func reach(g *callgraph.Graph, from []*callgraph.Func) map[*callgraph.Func]bool {
	seen := make(map[*callgraph.Func]bool)
	queue := append([]*callgraph.Func(nil), from...)
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		for _, c := range fn.Calls {
			if callee := g.Lookup(c.Callee); callee != nil && !seen[callee] {
				queue = append(queue, callee)
			}
		}
	}
	return seen
}
