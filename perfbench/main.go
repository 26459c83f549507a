// Command perfbench is portsim's benchmark. One invocation runs one
// workload for a fixed time, checks every output it produces, and prints
// its metrics as the last line of standard output:
//
//	perfbench --workload suite --seed 42 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured through the
// surfaces users call: the portbench CLI for the campaign workloads and
// the top-level portsim package for the single-cell ones. With --trace 1
// it makes a separate traced run that reports per-module metrics: spans
// around every experiment, cell, arena build and store operation, a CPU
// profile attributed to modules by leaf frame, timed calls into each
// internal module driven with the workload's own inputs, and the tracing
// overhead against the untraced median. README.md explains the workloads
// and the metric map; run.sh builds and starts this program.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// options are the command-line settings of one run.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	insts     uint64
	root      string
	work      string
	portbench string
	plant     bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadDef is one benchmark workload: its untraced measurement, its
// traced run, and the worker count it drives the program with.
type workloadDef struct {
	measure func(*bench) error
	traced  func(*bench) error
	workers func() int
	// insts is the committed-instruction budget per cell by default.
	insts uint64
}

// campaignInsts is the per-cell budget of the campaign workloads: short
// enough that one run holds several full seven-profile campaigns.
const campaignInsts = 20_000

// cellInsts is the budget of the single-cell workloads.
const cellInsts = 1_000_000

var workloads = map[string]workloadDef{
	"suite":      {measure: measureSuite, traced: tracedSuite, workers: runtime.NumCPU, insts: campaignInsts},
	"resume":     {measure: measureResume, traced: tracedResume, workers: runtime.NumCPU, insts: campaignInsts},
	"port-bound": {measure: measurePortBound, traced: tracedPortBound, workers: one, insts: cellInsts},
	"dram-bound": {measure: measureDRAMBound, traced: tracedDRAMBound, workers: one, insts: cellInsts},
}

func one() int { return 1 }

// bench accumulates the checks and metrics of one run.
type bench struct {
	opt     options
	golden  *golden
	workers int

	attempted, failed int
	metrics           map[string]metric
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		opt    options
		trace  int
		record string
	)
	fs.StringVar(&opt.workload, "workload", "", "workload to run: suite, resume, port-bound or dram-bound")
	fs.Int64Var(&opt.seed, "seed", 42, "workload generator seed")
	fs.Float64Var(&opt.seconds, "seconds", 15, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 makes the traced run that reports per-module metrics")
	fs.Uint64Var(&opt.insts, "insts", 0, "override the per-cell instruction budget (0: the workload's default)")
	fs.StringVar(&opt.root, "root", ".", "root of the portsim checkout")
	fs.StringVar(&opt.work, "work", ".bench_build/perfbench", "directory for stores, traces and profiles")
	fs.StringVar(&opt.portbench, "portbench", "", "portbench binary built from the checkout")
	fs.BoolVar(&opt.plant, "plant-mismatch", false, "corrupt one output before checking it, to prove the checks fire")
	fs.StringVar(&record, "record", "", "record golden outputs of this commit for a seed list such as 0-99,1996, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if opt.portbench == "" {
		return errors.New("--portbench is required (run through run.sh)")
	}
	// portbench runs in a scratch directory, so every path it is given
	// must be absolute.
	for _, p := range []*string{&opt.root, &opt.work, &opt.portbench} {
		abs, err := filepath.Abs(*p)
		if err != nil {
			return err
		}
		*p = abs
	}
	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		return err
	}
	if record != "" {
		return recordGolden(opt, record)
	}
	def, ok := workloads[opt.workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (have %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	if !(opt.seconds > 0) {
		return fmt.Errorf("--seconds must be positive")
	}
	opt.trace = trace == 1
	if opt.insts == 0 {
		opt.insts = def.insts
	}
	g, err := loadGolden(filepath.Join(opt.root, "perfbench", "golden.json"))
	if err != nil {
		return err
	}
	b := &bench{opt: opt, golden: g, workers: def.workers(), metrics: map[string]metric{}}
	host := hostInfo(opt.root, b.workers)
	if b.workers > host.NProc {
		return fmt.Errorf("workload %s would run %d workers on %d CPUs", opt.workload, b.workers, host.NProc)
	}
	hostJSON, _ := json.Marshal(host)
	fmt.Printf("host: %s\n", hostJSON)
	if opt.trace {
		err = def.traced(b)
	} else {
		err = def.measure(b)
	}
	if err != nil {
		return err
	}
	if b.attempted == 0 {
		return errors.New("no output was checked")
	}
	out, err := json.Marshal(result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// set records one metric.
func (b *bench) set(name string, value float64, unit string) {
	b.metrics[name] = metric{Value: value, Unit: unit}
}

// check counts one checked output and reports a failed one on stderr.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// info prints one human-readable line ahead of the result.
func (b *bench) info(format string, args ...any) {
	fmt.Printf(b.opt.workload+": "+format+"\n", args...)
}

// host is the measuring machine, recorded with every result.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	Workers    int    `json:"workers"`
}

// hostInfo describes the host. The commit comes from git when the checkout
// is a repository; the source digest identifies the code either way.
func hostInfo(root string, workers int) host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Source:     sourceDigest(root),
		Workers:    workers,
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// sourceDigest hashes the module's Go sources and go.mod outside the
// benchmark's own directory, in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || rel == "go.mod" {
			paths = append(paths, rel)
		}
		return nil
	})
	for _, rel := range paths {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fastest returns the shortest of a run's host times. Other tenants of a
// shared host only ever slow a repetition down, so the fastest repetition
// follows the code and moves least with host load.
func fastest(xs []float64) float64 { return quantile(xs, 0) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio divides, returning 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSS returns this process's resident-set high-water mark in bytes.
func peakRSS() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb int64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%d kB", &kb); err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// mallocs returns the runtime's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
