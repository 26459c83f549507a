// Command portlint runs the repository's custom static-analysis suite (see
// internal/lint and the README's "Static analysis & determinism guarantees"
// section) over the given package patterns and reports findings in the
// usual file:line:col format. It exits non-zero when any finding survives
// suppression, so CI can gate on it.
//
// Usage:
//
//	go run ./cmd/portlint ./...          # lint the whole module
//	go run ./cmd/portlint -list         # describe the analyzers
//	go run ./cmd/portlint -counters ./... # dump the written counter names
//	go run ./cmd/portlint -json ./...    # portlint-diag/v1 JSON for CI
//	go run ./cmd/portlint -suppressions ./... # audit //portlint:ignore directives
//
// Suppress a finding by appending a justification-bearing directive to the
// flagged line (or the line above):
//
//	offset := addr - chunk //portlint:ignore cyclemath chunk is addr masked down
//
// The -suppressions audit fails (exit 1) when a directive names an unknown
// analyzer, is missing its invariant comment, or is stale — the ignored
// analyzer no longer fires on the covered lines.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"portsim/internal/lint"
	"portsim/internal/lint/analysis"
	"portsim/internal/lint/counterhygiene"
	"portsim/internal/lint/loader"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "portlint:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run executes the tool; split from main for testability. It returns the
// process exit code: 0 clean, 1 findings.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("portlint", flag.ContinueOnError)
	var (
		list         = fs.Bool("list", false, "describe the analyzers and exit")
		counters     = fs.Bool("counters", false, "dump every counter name written by the matched packages (for regenerating internal/stats/names.go)")
		jsonOut      = fs.Bool("json", false, "emit portlint-diag/v1 JSON (including suppressed findings) instead of text")
		suppressions = fs.Bool("suppressions", false, "audit //portlint:ignore directives: list each with its invariant comment, fail on missing comments and stale directives")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}

	if *list {
		for _, a := range lint.Suite() {
			fmt.Fprintf(out, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0, nil
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	if *counters {
		pkgs, err := loader.Load(".", patterns...)
		if err != nil {
			return 2, err
		}
		for _, name := range counterhygiene.WrittenNames(pkgs) {
			fmt.Fprintln(out, name)
		}
		return 0, nil
	}

	if *suppressions {
		return auditSuppressions(out, patterns)
	}

	pkgs, err := loader.Load(".", patterns...)
	if err != nil {
		return 2, err
	}
	findings, err := lint.Analyze(pkgs)
	if err != nil {
		return 2, err
	}
	active := lint.Active(findings)

	if *jsonOut {
		root, err := filepath.Abs(".")
		if err != nil {
			return 2, err
		}
		data, err := lint.EncodeDiagnostics(root, findings)
		if err != nil {
			return 2, err
		}
		if _, err := out.Write(data); err != nil {
			return 2, err
		}
		if len(active) > 0 {
			return 1, nil
		}
		return 0, nil
	}

	for _, f := range active {
		fmt.Fprintln(out, f)
	}
	if len(active) > 0 {
		fmt.Fprintf(out, "portlint: %d finding(s)\n", len(active))
		return 1, nil
	}
	return 0, nil
}

// auditSuppressions implements the -suppressions mode: every directive is
// listed with its position, analyzers and invariant comment; a directive
// with no comment, an unknown analyzer name, or no suppressed finding left
// under it (stale) is a problem and fails the audit.
func auditSuppressions(out io.Writer, patterns []string) (int, error) {
	pkgs, err := loader.Load(".", patterns...)
	if err != nil {
		return 2, err
	}
	findings, err := lint.Analyze(pkgs)
	if err != nil {
		return 2, err
	}
	root, err := filepath.Abs(".")
	if err != nil {
		return 2, err
	}

	known := make(map[string]bool)
	for _, a := range lint.Suite() {
		known[a.Name] = true
	}
	type key struct {
		file     string
		line     int
		analyzer string
	}
	suppressedAt := make(map[key]bool)
	for _, f := range findings {
		if f.Suppressed {
			suppressedAt[key{f.Position.Filename, f.Position.Line, f.Analyzer}] = true
		}
	}

	dirs := analysis.Directives(pkgs)
	problems := 0
	for _, d := range dirs {
		file := d.Position.Filename
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		for _, name := range d.Analyzers {
			var issues []string
			if !known[name] {
				issues = append(issues, "UNKNOWN-ANALYZER")
			}
			if d.Reason == "" {
				issues = append(issues, "MISSING-INVARIANT-COMMENT")
			}
			if known[name] &&
				!suppressedAt[key{d.Position.Filename, d.Position.Line, name}] &&
				!suppressedAt[key{d.Position.Filename, d.Position.Line + 1, name}] {
				issues = append(issues, "STALE")
			}
			status := "ok"
			if len(issues) > 0 {
				problems += len(issues)
				status = strings.Join(issues, ",")
			}
			fmt.Fprintf(out, "%s:%d: %s: %q %s\n", file, d.Position.Line, name, d.Reason, status)
		}
	}
	fmt.Fprintf(out, "portlint: %d suppression directive(s), %d problem(s)\n", len(dirs), problems)
	if problems > 0 {
		return 1, nil
	}
	return 0, nil
}
