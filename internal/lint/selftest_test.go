package lint_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"portsim/internal/lint"
	"portsim/internal/lint/loader"
)

// lintModule loads every package of the module at dir and runs the full
// suite over them, as cmd/portlint ./... does.
func lintModule(dir string) ([]lint.Finding, error) {
	pkgs, err := loader.Load(dir, "./...")
	if err != nil {
		return nil, err
	}
	return lint.Analyze(pkgs)
}

// TestRepoClean asserts the invariant CI gates on: the full analyzer suite
// reports zero active findings over the module's own packages (suppressed
// findings are expected — every //portlint:ignore directive shields one).
func TestRepoClean(t *testing.T) {
	findings, err := lintModule("../..")
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	for _, f := range lint.Active(findings) {
		t.Errorf("portlint finding on the repository itself: %s", f)
	}
}

// TestGoVet asserts go vet stays clean, mirroring the CI gate.
func TestGoVet(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not on PATH: %v", err)
	}
	cmd := exec.Command(goTool, "vet", "./...")
	cmd.Dir = "../.."
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("go vet ./...: %v\n%s", err, out.Bytes())
	}
}

// TestPlantedViolations builds a scratch module containing one violation per
// determinism/arithmetic analyzer, plus a function no production root
// reaches, and asserts the suite fails on it — the guarantee that a
// regression cannot slip through a green lint run.
func TestPlantedViolations(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.22\n")
	write("scratch.go", "package scratch\n\n// API is the module's exported surface.\nfunc API() {}\n")
	write("lib/lib.go", "package lib\n\nfunc PlantedOrphan() {}\n") // no caller: noprodcaller
	write("cmd/planted/main.go", `package main

import (
	"fmt"
	"math/rand"
	"time"
)

func main() {
	defer func() { _ = recover() }()       // bare recover: recoverhygiene
	start := uint64(time.Now().UnixNano()) // time.Now: detrand
	end := uint64(rand.Int63())            // global rand: detrand
	elapsed := end - start                 // unguarded uint64 subtraction: cyclemath
	if float64(elapsed) == 1.0 {           // exact float equality: floatcmp
		fmt.Println("never")
	}
}
`)

	findings, err := lintModule(dir)
	if err != nil {
		t.Fatalf("lint on scratch module: %v", err)
	}
	wantAnalyzers := []string{"cyclemath", "detrand", "floatcmp", "noprodcaller", "recoverhygiene"}
	got := make(map[string]int)
	for _, f := range findings {
		got[f.Analyzer]++
		if f.Analyzer == "noprodcaller" && !strings.Contains(f.Message, "lib.PlantedOrphan") {
			t.Errorf("noprodcaller flagged a reached function: %s", f)
		}
	}
	for _, name := range wantAnalyzers {
		if got[name] == 0 {
			t.Errorf("planted %s violation not reported; findings: %v", name, findings)
		}
	}
	if got["detrand"] < 2 {
		t.Errorf("want both the rand and wall-clock detrand findings, got %d", got["detrand"])
	}
}

// TestPlantedClosureViolation plants an allocating helper two hops below an
// annotated hotpath function in a scratch module and asserts the acceptance
// criterion for the whole-program analyzers: both hotpathclosure and
// escapegate catch it, each with the root→sink call chain.
func TestPlantedClosureViolation(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.22\n")
	write("hot.go", `package hot

var sink []int

//portlint:hotpath
func step() {
	helperA()
}

func helperA() { helperB() }

func helperB() {
	sink = make([]int, 32)
}
`)

	findings, err := lintModule(dir)
	if err != nil {
		t.Fatalf("lint on scratch module: %v", err)
	}
	wantChain := []string{"hot.step", "hot.helperA", "hot.helperB"}
	caught := make(map[string]bool)
	for _, f := range findings {
		if f.Analyzer != "hotpathclosure" && f.Analyzer != "escapegate" {
			continue
		}
		caught[f.Analyzer] = true
		if strings.Join(f.Chain, ",") != strings.Join(wantChain, ",") {
			t.Errorf("%s chain = %v, want %v", f.Analyzer, f.Chain, wantChain)
		}
		if !strings.Contains(f.Message, "hot.step -> hot.helperA -> hot.helperB") {
			t.Errorf("%s message missing the root→sink chain: %s", f.Analyzer, f.Message)
		}
	}
	for _, name := range []string{"hotpathclosure", "escapegate"} {
		if !caught[name] {
			t.Errorf("planted two-hop allocation not caught by %s; findings: %v", name, findings)
		}
	}
}

// TestSuiteStable pins the analyzer roster so CI output stays predictable.
func TestSuiteStable(t *testing.T) {
	var names []string
	for _, a := range lint.Suite() {
		names = append(names, a.Name)
	}
	want := "configbounds,counterhygiene,cyclemath,detrand,escapegate,floatcmp,hotpath,hotpathclosure,layerimports,maporder,noprodcaller,recoverhygiene"
	if got := strings.Join(names, ","); got != want {
		t.Errorf("Suite() = %s, want %s", got, want)
	}
}
