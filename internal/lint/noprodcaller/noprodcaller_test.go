package noprodcaller_test

import (
	"testing"

	"portsim/internal/lint"
	"portsim/internal/lint/analysis"
	"portsim/internal/lint/analysistest"
	"portsim/internal/lint/loader"
)

// fromSuite returns the analyzer as the portlint gate runs it, so these
// tests also fail when it drops out of lint.Suite().
func fromSuite(t *testing.T) *analysis.Analyzer {
	t.Helper()
	for _, a := range lint.Suite() {
		if a.Name == "noprodcaller" {
			return a
		}
	}
	t.Fatal("noprodcaller is not in lint.Suite()")
	return nil
}

// TestNoProdCaller loads the whole fixture module — root package, a cmd/
// main and a library — with its perfbench module beside it.
func TestNoProdCaller(t *testing.T) {
	analysistest.Run(t, fromSuite(t), "prog", "prog/cmd/tool", "prog/lib")
}

// TestPartialLoadReportsNothing: without the root package and a main, an
// orphan cannot be told from a function whose caller was not loaded.
func TestPartialLoadReportsNothing(t *testing.T) {
	for _, patterns := range [][]string{
		{"./testdata/src/prog/lib"},
		{"./testdata/src/prog", "./testdata/src/prog/lib"},
		{"./testdata/src/prog/cmd/tool", "./testdata/src/prog/lib"},
	} {
		pkgs, err := loader.Load(".", patterns...)
		if err != nil {
			t.Fatal(err)
		}
		findings, err := lint.Analyze(pkgs, fromSuite(t))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range findings {
			t.Errorf("%v: partial load reported %s", patterns, f)
		}
	}
}
