// Package lint is the portlint driver: it runs the analyzer suite over
// packages the loader produced, applies //portlint:ignore suppressions and
// returns the findings in a stable order. Suppressed findings are retained
// with Suppressed set rather than dropped, so the -json output can carry
// suppression state and the -suppressions audit can detect stale
// directives; text output and exit codes consider only active findings.
// cmd/portlint is a thin wrapper; the repository's self-test runs the same
// entrypoints in-process.
package lint

import (
	"fmt"
	"go/token"
	"sort"

	"portsim/internal/lint/analysis"
	"portsim/internal/lint/configbounds"
	"portsim/internal/lint/counterhygiene"
	"portsim/internal/lint/cyclemath"
	"portsim/internal/lint/detrand"
	"portsim/internal/lint/escapegate"
	"portsim/internal/lint/floatcmp"
	"portsim/internal/lint/hotpath"
	"portsim/internal/lint/hotpathclosure"
	"portsim/internal/lint/layerimports"
	"portsim/internal/lint/maporder"
	"portsim/internal/lint/noprodcaller"
	"portsim/internal/lint/recoverhygiene"
)

// Suite returns the full portlint analyzer suite.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		configbounds.Analyzer,
		counterhygiene.Analyzer,
		cyclemath.Analyzer,
		detrand.Analyzer,
		escapegate.Analyzer,
		floatcmp.Analyzer,
		hotpath.Analyzer,
		hotpathclosure.Analyzer,
		layerimports.Analyzer,
		maporder.Analyzer,
		noprodcaller.Analyzer,
		recoverhygiene.Analyzer,
	}
}

// Finding is one diagnostic resolved to a concrete source position.
type Finding struct {
	Analyzer string
	Position token.Position
	Message  string

	// Chain is the root→sink call chain for whole-program diagnostics
	// (hotpathclosure, escapegate); nil for per-site findings.
	Chain []string

	// Suppressed marks a finding silenced by a //portlint:ignore directive.
	// Suppressed findings never fail a lint run; they are kept for the
	// -json suppression state and the stale-suppression audit.
	Suppressed bool
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Position, f.Analyzer, f.Message)
}

// Active filters findings down to the unsuppressed ones that gate CI.
func Active(findings []Finding) []Finding {
	var out []Finding
	for _, f := range findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// Analyze runs the analyzers over already-loaded packages.
func Analyze(pkgs []*analysis.Package, analyzers ...*analysis.Analyzer) ([]Finding, error) {
	if len(analyzers) == 0 {
		analyzers = Suite()
	}
	if len(pkgs) == 0 {
		return nil, nil
	}
	fset := pkgs[0].Fset
	suppressed := suppressionIndex(analysis.Directives(pkgs))

	var findings []Finding
	report := func(name string) func(analysis.Diagnostic) {
		return func(d analysis.Diagnostic) {
			pos := fset.Position(d.Pos)
			findings = append(findings, Finding{
				Analyzer:   name,
				Position:   pos,
				Message:    d.Message,
				Chain:      d.Chain,
				Suppressed: suppressed[suppressionKey{pos.Filename, pos.Line, name}],
			})
		}
	}
	for _, a := range analyzers {
		if a.Run != nil {
			for _, pkg := range pkgs {
				pass := &analysis.Pass{
					Analyzer:  a,
					Fset:      fset,
					Files:     pkg.Files,
					Pkg:       pkg.Types,
					TypesInfo: pkg.TypesInfo,
					Report:    report(a.Name),
				}
				if err := a.Run(pass); err != nil {
					return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.Path, err)
				}
			}
		}
		if a.RunModule != nil {
			pass := &analysis.ModulePass{
				Analyzer: a,
				Fset:     fset,
				Pkgs:     pkgs,
				Report:   report(a.Name),
			}
			if err := a.RunModule(pass); err != nil {
				return nil, fmt.Errorf("lint: %s module pass: %v", a.Name, err)
			}
		}
	}
	// Stable order: position, then analyzer, then message — the message
	// tie-break keeps same-position findings from the same analyzer (for
	// example two escape diagnostics on one line) in a byte-stable order
	// for -json.
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings, nil
}

// suppressionKey addresses one (file, line, analyzer) suppression.
type suppressionKey struct {
	file     string
	line     int
	analyzer string
}

// suppressionIndex expands directives into the per-line lookup Analyze
// consults.
func suppressionIndex(dirs []analysis.Directive) map[suppressionKey]bool {
	sup := make(map[suppressionKey]bool)
	for _, d := range dirs {
		for _, name := range d.Analyzers {
			sup[suppressionKey{d.Position.Filename, d.Position.Line, name}] = true
			sup[suppressionKey{d.Position.Filename, d.Position.Line + 1, name}] = true
		}
	}
	return sup
}
