// Package analysis defines the analyzer API for portlint, the repository's
// custom static-analysis suite. It deliberately mirrors the core surface of
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic) so analyzers
// written against it port to the upstream framework mechanically — the
// upstream module is not vendored because this repository builds offline
// with the standard library only.
//
// Two extensions cover what the x/tools multichecker expresses through
// Facts and flags:
//
//   - Analyzer.RunModule runs once over every loaded package, for
//     whole-module invariants such as "every counter name that is read is
//     also written somewhere" (see the counterhygiene analyzer).
//
//   - Suppression comments of the form
//
//     //portlint:ignore <analyzer>[,<analyzer>...] [reason]
//
//     silence diagnostics on the same line, or on the following line when
//     the comment stands alone. The driver (internal/lint) applies them.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //portlint:ignore directives. It must be a lower-case identifier.
	Name string

	// Doc is the one-paragraph description shown by `portlint -list`.
	Doc string

	// Run analyzes a single package. It may report diagnostics via
	// pass.Report and may return an error for internal failures (which
	// aborts the whole lint run, unlike a diagnostic).
	Run func(*Pass) error

	// RunModule, if non-nil, runs once after every per-package pass with
	// the full set of loaded packages, for cross-package invariants.
	RunModule func(*ModulePass) error
}

// Package bundles everything the driver knows about one loaded package.
type Package struct {
	// Path is the package's import path as reported by the go tool.
	Path string

	// Dir is the package's directory on disk.
	Dir string

	// Files are the parsed non-test Go files. Test files are not
	// analyzed: every portlint invariant applies to simulator code, and
	// tests are free to use wall clocks, ad-hoc counter names and
	// hand-built configs.
	Files []*ast.File

	// Types is the type-checked package.
	Types *types.Package

	// TypesInfo carries the type-checker's expression and identifier
	// resolution for Files.
	TypesInfo *types.Info

	// Fset translates token positions for Files.
	Fset *token.FileSet
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records a diagnostic against the package under analysis.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ModulePass carries an analyzer's view of the whole loaded module for
// RunModule hooks.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package

	Report func(Diagnostic)
}

// Reportf reports a formatted module-level diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, positioned at Pos in the shared FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string

	// Chain, when non-empty, is the static call chain that makes the
	// diagnostic whole-program: the first element is the annotated root
	// (for the hotpath-closure analyzers, a //portlint:hotpath function)
	// and the last is the function containing Pos. The driver carries it
	// into the finding and the portlint-diag/v1 JSON output.
	Chain []string
}

// ignorePrefix starts a suppression comment.
const ignorePrefix = "//portlint:ignore"

// Directive is one //portlint:ignore comment in the analyzed sources.
type Directive struct {
	Position token.Position
	// Analyzers are the comma-separated analyzer names the directive
	// silences.
	Analyzers []string
	// Reason is the invariant comment after the analyzer list; the
	// -suppressions audit requires it to be non-empty.
	Reason string
}

// Directives collects every //portlint:ignore directive in the loaded
// packages, in deterministic (package, file, position) order. A directive
// silences the named analyzers on its own line and on the line below, which
// covers both trailing comments and standalone comment lines above the
// flagged statement.
func Directives(pkgs []*Package) []Directive {
	var dirs []Directive
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, group := range f.Comments {
				for _, c := range group.List {
					if d, ok := parseIgnore(c.Text); ok {
						d.Position = pkg.Fset.Position(c.Pos())
						dirs = append(dirs, d)
					}
				}
			}
		}
	}
	return dirs
}

// parseIgnore parses one comment as a //portlint:ignore directive; ok is
// false when the comment is not one or names no analyzer.
func parseIgnore(comment string) (d Directive, ok bool) {
	rest, ok := strings.CutPrefix(comment, ignorePrefix)
	if !ok {
		return d, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return d, false
	}
	for _, name := range strings.Split(fields[0], ",") {
		if name != "" {
			d.Analyzers = append(d.Analyzers, name)
		}
	}
	d.Reason = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
	return d, len(d.Analyzers) > 0
}
