// Package analysistest runs a portlint analyzer over fixture packages and
// checks its diagnostics against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest. Fixtures live under the
// analyzer package's testdata/src/<pkg>/ directory; they are real,
// compilable packages inside this module (the go tool's pattern expansion
// skips testdata directories, so planted violations never reach go build
// ./... or go vet ./...).
//
// Expectation syntax, on the line the diagnostic is expected:
//
//	s.Get("typo") // want `regexp`
//
// Multiple backquoted regexps on one line expect multiple diagnostics.
// Lines without a want comment must produce no diagnostics. Both the
// per-package Run and the module-level RunModule of the analyzer execute;
// the module pass sees exactly the fixture packages named in the call.
// //portlint:ignore suppressions are applied, so fixtures can also assert
// that a suppressed line stays silent.
package analysistest

import (
	"go/ast"
	"regexp"
	"strings"
	"testing"

	"portsim/internal/lint"
	"portsim/internal/lint/analysis"
	"portsim/internal/lint/loader"
)

var wantRE = regexp.MustCompile("`([^`]*)`")

// Run loads testdata/src/<fixture> for each named fixture (relative to the
// calling test's package directory) and analyzes them together with a.
//
//portlint:ignore noprodcaller the fixture harness every analyzer's tests import
func Run(t *testing.T, a *analysis.Analyzer, fixtures ...string) {
	t.Helper()
	if len(fixtures) == 0 {
		t.Fatal("analysistest: no fixture packages given")
	}
	patterns := make([]string, len(fixtures))
	for i, fx := range fixtures {
		patterns[i] = "./testdata/src/" + fx
	}
	pkgs, err := loader.Load(".", patterns...)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}

	all, err := lint.Analyze(pkgs, a)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	// Want comments describe the findings that would gate CI; suppressed
	// ones stay invisible here so fixtures can assert an ignore directive
	// keeps a line silent.
	findings := lint.Active(all)

	type lineKey struct {
		file string
		line int
	}
	wants := make(map[lineKey][]*regexp.Regexp)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			collectWants(t, pkg, f, func(file string, line int, re *regexp.Regexp) {
				k := lineKey{file, line}
				wants[k] = append(wants[k], re)
			})
		}
	}

	for _, f := range findings {
		k := lineKey{f.Position.Filename, f.Position.Line}
		idx := -1
		for i, re := range wants[k] {
			if re.MatchString(f.Message) {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Errorf("%s: unexpected diagnostic: %s: %s", f.Position, f.Analyzer, f.Message)
			continue
		}
		wants[k] = append(wants[k][:idx], wants[k][idx+1:]...)
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
}

// collectWants parses the // want comments of one file.
func collectWants(t *testing.T, pkg *analysis.Package, f *ast.File, add func(file string, line int, re *regexp.Regexp)) {
	t.Helper()
	for _, group := range f.Comments {
		for _, c := range group.List {
			_, rest, found := strings.Cut(c.Text, "// want ")
			if !found {
				continue
			}
			pos := pkg.Fset.Position(c.Pos())
			matches := wantRE.FindAllStringSubmatch(rest, -1)
			if len(matches) == 0 {
				t.Fatalf("%s: malformed want comment %q: expectations must be backquoted regexps", pos, c.Text)
			}
			for _, m := range matches {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", pos, m[1], err)
				}
				add(pos.Filename, pos.Line, re)
			}
		}
	}
}
