package main

import (
	"fmt"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// selfModules are the modules host self time is attributed to, in report
// order. The cpu module is split by file, since issue, fetch and the rest
// of the core loop are the parts a change usually moves.
var selfModules = []string{
	"cpu.issue", "cpu.fetch", "cpu", "core", "mem", "cache", "bpred", "trace",
	"workload", "experiments", "cellstore", "runtime", "other",
}

// moduleOf names the module a frame belongs to.
func moduleOf(function, file string) string {
	switch {
	case strings.HasSuffix(file, "/internal/cpu/issue.go"):
		return "cpu.issue"
	case strings.HasSuffix(file, "/internal/cpu/fetch.go"):
		return "cpu.fetch"
	case strings.HasPrefix(function, "runtime.") || strings.HasPrefix(function, "runtime/") ||
		strings.HasPrefix(function, "internal/runtime/"):
		return "runtime"
	}
	for _, m := range []string{"cpu", "core", "mem", "cache", "bpred", "trace", "workload", "experiments", "cellstore"} {
		if strings.HasPrefix(function, "portsim/internal/"+m+".") {
			return m
		}
	}
	return "other"
}

// stackModule names the module a sample's time is charged to, given its
// frames leaf first as {function, file}. A leaf outside the listed modules
// and the runtime (file I/O, JSON, hashing, helper packages such as stats)
// is charged to the nearest listed module up its stack, the one that asked
// for the work.
func stackModule(frames [][2]string) string {
	for i, f := range frames {
		m := moduleOf(f[0], f[1])
		if (i == 0 && m == "runtime") || (m != "runtime" && m != "other") {
			return m
		}
	}
	return "other"
}

// selfShares reads a CPU profile and returns, per module, the share of
// profiled time whose leaf frame lies in it, plus the total. It reads every
// sample's stack from `go tool pprof -traces -lines`, whose output lists
// each stack leaf first, one frame per line as "function file:line", with
// the sample's time on the first line and its labels, if any, above it.
func selfShares(path string) (map[string]float64, time.Duration, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-lines", path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	counts := map[string]time.Duration{}
	var total, value time.Duration
	var frames [][2]string
	inTraces, first := false, false
	flush := func() {
		if len(frames) > 0 {
			counts[stackModule(frames)] += value
			total += value
		}
		frames = nil
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces, first = true, true
			continue
		}
		f := strings.Fields(line)
		if !inTraces || len(f) == 0 {
			continue
		}
		if first && strings.HasSuffix(f[0], ":") {
			continue // one of the sample's pprof labels, "key: value"
		}
		if first {
			if value, err = time.ParseDuration(f[0]); err != nil {
				return nil, 0, fmt.Errorf("go tool pprof: bad sample value in %q", line)
			}
			f, first = f[1:], false
		}
		if len(f) == 0 {
			return nil, 0, fmt.Errorf("go tool pprof: no frame in %q", line)
		}
		file := ""
		if len(f) > 1 {
			file, _, _ = strings.Cut(f[1], ":")
		}
		frames = append(frames, [2]string{f[0], file})
	}
	flush()
	if total == 0 {
		return nil, 0, fmt.Errorf("%s: no CPU-profile samples", path)
	}
	shares := map[string]float64{}
	for _, m := range selfModules {
		shares[m] = ratio(float64(counts[m]), float64(total))
	}
	return shares, total, nil
}

// selfTable renders the per-module self-time shares, largest first.
func selfTable(shares map[string]float64, profiled time.Duration) string {
	mods := append([]string(nil), selfModules...)
	sort.SliceStable(mods, func(i, j int) bool { return shares[mods[i]] > shares[mods[j]] })
	var out strings.Builder
	fmt.Fprintf(&out, "host self time by module (leaf frame; other leaves charged to their caller; %.2fs of CPU-profile samples)\n", profiled.Seconds())
	for _, m := range mods {
		fmt.Fprintf(&out, "  %-12s %6.1f%%\n", m, 100*shares[m])
	}
	return out.String()
}
