package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// golden holds outputs recorded from a known-good commit: per seed, the
// digest of every experiment table the campaign prints at campaignInsts,
// and the exact cycle count of each single-cell workload at cellInsts.
// The model is deterministic, so any difference is a wrong output.
type golden struct {
	SuiteInsts uint64                `json:"suite_insts"`
	CellInsts  uint64                `json:"cell_insts"`
	Seeds      map[string]goldenSeed `json:"seeds"`
}

type goldenSeed struct {
	Tables          map[string]string `json:"tables"`
	PortBoundCycles uint64            `json:"port_bound_cycles"`
	DRAMBoundCycles uint64            `json:"dram_bound_cycles"`
}

func loadGolden(path string) (*golden, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return &golden{Seeds: map[string]goldenSeed{}}, nil
	}
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &g, nil
}

// tables returns the recorded table digests for a campaign, or nil when
// none were recorded for this seed and length.
func (g *golden) tables(seed int64, insts uint64) map[string]string {
	s, ok := g.Seeds[strconv.FormatInt(seed, 10)]
	if !ok || insts != g.SuiteInsts {
		return nil
	}
	return s.Tables
}

// cycles returns the recorded cycle count of a single-cell workload.
func (g *golden) cycles(workload string, seed int64, insts uint64) (uint64, bool) {
	s, ok := g.Seeds[strconv.FormatInt(seed, 10)]
	if !ok || insts != g.CellInsts {
		return 0, false
	}
	switch workload {
	case "port-bound":
		return s.PortBoundCycles, s.PortBoundCycles != 0
	case "dram-bound":
		return s.DRAMBoundCycles, s.DRAMBoundCycles != 0
	}
	return 0, false
}

// block is one experiment table as printed, title line to trailing blank.
type block struct {
	id, text string
}

var titleLine = regexp.MustCompile(`^([A-Z][0-9]+): `)

// splitOutput cuts a campaign's standard output into its header and its
// tables, stopping at the wall-time footer.
func splitOutput(out string) (header string, blocks []block) {
	var cur *block
	for _, line := range strings.SplitAfter(out, "\n") {
		if strings.HasPrefix(line, "total wall time:") {
			break
		}
		if m := titleLine.FindStringSubmatch(line); m != nil {
			blocks = append(blocks, block{id: m[1]})
			cur = &blocks[len(blocks)-1]
		}
		if cur == nil {
			header += line
		} else {
			cur.text += line
		}
	}
	return header, blocks
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// checkTables checks one campaign's tables: every experiment present and
// not failed, equal to the recorded digests when want is set, and equal
// to ref when ref is set. Each table is one checked output.
func (b *bench) checkTables(label string, got []block, want map[string]string, ref []block) {
	byID := map[string]string{}
	for _, bl := range got {
		byID[bl.id] = bl.text
	}
	refByID := map[string]string{}
	for _, bl := range ref {
		refByID[bl.id] = bl.text
	}
	for _, e := range suiteExperiments {
		text, ok := byID[e.id]
		if b.opt.plant && e.id == "T2" {
			text += "planted mismatch\n"
		}
		good := ok && !strings.HasPrefix(text, e.id+": FAILED")
		if good && want != nil {
			good = digest(text) == want[e.id]
		}
		if good && ref != nil {
			r, ok := refByID[e.id]
			good = ok && r == text
		}
		b.check(good, "%s: table %s differs from its reference", label, e.id)
	}
	b.check(len(got) == len(suiteExperiments), "%s: %d tables printed, want %d", label, len(got), len(suiteExperiments))
}

// recordedSpecTables returns the tables of results/portbench.txt when the
// campaign runs at the spec that file records (every profile, 300k
// instructions, seed 42), and nil otherwise.
func (b *bench) recordedSpecTables() ([]block, error) {
	if b.opt.insts != 300_000 || b.opt.seed != 42 {
		return nil, nil
	}
	data, err := os.ReadFile(filepath.Join(b.opt.root, "results", "portbench.txt"))
	if err != nil {
		return nil, err
	}
	_, blocks := splitOutput(string(data))
	return blocks, nil
}

// campaignRefs returns the references a campaign's tables are checked
// against: recorded digests for this seed and length, and the tables of
// results/portbench.txt at the spec it records.
func (b *bench) campaignRefs() (map[string]string, []block, error) {
	ref, err := b.recordedSpecTables()
	return b.golden.tables(b.opt.seed, b.opt.insts), ref, err
}

// recordGolden records this commit's outputs for a seed list like
// "0-99,1996" into perfbench/golden.json.
func recordGolden(opt options, list string) error {
	seeds, err := parseSeeds(list)
	if err != nil {
		return err
	}
	path := filepath.Join(opt.root, "perfbench", "golden.json")
	g, err := loadGolden(path)
	if err != nil {
		return err
	}
	if g.SuiteInsts != campaignInsts || g.CellInsts != cellInsts {
		g = &golden{SuiteInsts: campaignInsts, CellInsts: cellInsts, Seeds: map[string]goldenSeed{}}
	}
	for _, seed := range seeds {
		o := opt
		o.seed = seed
		o.insts = campaignInsts
		b := &bench{opt: o, golden: &golden{}, workers: runtime.NumCPU(), metrics: map[string]metric{}}
		c, err := b.portbenchRun(b.campaignArgs()...)
		if err == nil {
			err = c.simulated()
		}
		if err != nil {
			return err
		}
		_, blocks := splitOutput(c.stdout)
		if len(blocks) != len(suiteExperiments) {
			return fmt.Errorf("seed %d: campaign printed %d tables", seed, len(blocks))
		}
		gs := goldenSeed{Tables: map[string]string{}}
		for _, bl := range blocks {
			gs.Tables[bl.id] = digest(bl.text)
		}
		for _, w := range []*cellWorkload{portBound, dramBound} {
			res, _, err := w.runOnce(seed, cellInsts)
			if err != nil {
				return fmt.Errorf("seed %d: %s: %w", seed, w.name, err)
			}
			if w == portBound {
				gs.PortBoundCycles = res.Cycles
			} else {
				gs.DRAMBoundCycles = res.Cycles
			}
		}
		g.Seeds[strconv.FormatInt(seed, 10)] = gs
		fmt.Printf("recorded seed %d\n", seed)
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parseSeeds parses a comma-separated list of seeds and inclusive ranges.
func parseSeeds(list string) ([]int64, error) {
	var seeds []int64
	for _, part := range strings.Split(list, ",") {
		lo, hi, isRange := strings.Cut(strings.TrimSpace(part), "-")
		a, err := strconv.ParseInt(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed list %q: %w", list, err)
		}
		z := a
		if isRange {
			if z, err = strconv.ParseInt(hi, 10, 64); err != nil || z < a {
				return nil, fmt.Errorf("bad seed range %q", part)
			}
		}
		for s := a; s <= z; s++ {
			seeds = append(seeds, s)
		}
	}
	return seeds, nil
}
