package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"portsim/internal/benchfmt"
)

// minReps is the fewest repetitions a measured phase makes, however short
// --seconds is, so every figure rests on several samples.
const minReps = 3

// campaignRun is one portbench process, observed from outside.
type campaignRun struct {
	stdout string
	// wall is spawn to exit; setup is spawn to the first table (T1, which
	// simulates nothing), so it covers process start, store open and
	// runner construction but no cell.
	wall, setup time.Duration
	maxRSS      int64
	report      *benchfmt.Report
	exitErr     error
}

// campaignArgs are the portbench flags of this run's campaign.
func (b *bench) campaignArgs(extra ...string) []string {
	return append([]string{
		"-insts", strconv.FormatUint(b.opt.insts, 10),
		"-seed", strconv.FormatInt(b.opt.seed, 10),
		"-parallel", strconv.Itoa(b.workers),
	}, extra...)
}

// portbenchRun runs portbench once in a scratch directory and collects its
// output, timings, peak RSS and throughput report.
func (b *bench) portbenchRun(args ...string) (*campaignRun, error) {
	dir, err := os.MkdirTemp(b.opt.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	jsonPath := filepath.Join(dir, "bench.json")
	args = append(args, "-benchjson", jsonPath, "-repro-dir", dir)
	cmd := exec.Command(b.opt.portbench, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &campaignRun{}
	var out strings.Builder
	r := bufio.NewReader(pipe)
	for {
		line, err := r.ReadString('\n')
		if c.setup == 0 && strings.HasPrefix(line, "T1: ") {
			c.setup = time.Since(start)
		}
		out.WriteString(line)
		if err != nil {
			break
		}
	}
	c.exitErr = cmd.Wait()
	c.wall = time.Since(start)
	c.stdout = out.String()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.maxRSS = ru.Maxrss << 10
	}
	if c.exitErr != nil {
		return c, nil
	}
	if c.report, err = benchfmt.Read(jsonPath); err != nil {
		return nil, err
	}
	if c.report.Parallel != b.workers {
		return nil, fmt.Errorf("portbench ran %d workers, want %d", c.report.Parallel, b.workers)
	}
	if c.setup == 0 {
		return nil, errors.New("portbench printed no T1 table")
	}
	return c, nil
}

// simulated checks that a cold campaign simulated something. A resumed
// one need not: once every cell is restored, its residual reads 0.
func (c *campaignRun) simulated() error {
	if c.exitErr == nil && c.report.Total.SimCycles == 0 {
		return errors.New("portbench simulated nothing")
	}
	return nil
}

// campaignSamples gathers the per-campaign end-to-end figures, host times
// as measured.
type campaignSamples struct {
	wall, setup, rss, rate, allocs []float64
}

// add records one campaign. cycles is the campaign's simulated work: the
// cycles of every distinct cell, whether simulated in this process or
// restored from a store.
func (s *campaignSamples) add(c *campaignRun, cycles uint64) {
	wall := c.wall.Seconds()
	s.wall = append(s.wall, wall)
	s.setup = append(s.setup, c.setup.Seconds())
	s.rss = append(s.rss, float64(c.maxRSS)/(1<<20))
	s.rate = append(s.rate, float64(cycles)/wall/1e6)
	s.allocs = append(s.allocs, 1000*float64(c.report.Total.Allocs)/float64(cycles))
}

func (s *campaignSamples) report(b *bench, cal *calibrator) {
	f := cal.factor()
	b.set("wall_s", fastest(s.wall)*f, "s")
	b.set("setup_s", fastest(s.setup)*f, "s")
	b.set("peak_rss_mib", median(s.rss), "MiB")
	b.set("sim_mcycles_per_s", quantile(s.rate, 1)/f, "Mcycles/s")
	b.set("allocs_per_kcycle", median(s.allocs), "allocs/kcycle")
	b.info("%d campaigns as measured: wall min %.4fs p50 %.4fs, setup min %.5fs p50 %.5fs; %s",
		len(s.wall), fastest(s.wall), median(s.wall), fastest(s.setup), median(s.setup), cal.info())
}

// measureSuite runs the whole paper campaign through portbench, again and
// again on a fresh process with no store, and checks every table.
func measureSuite(b *bench) error {
	want, recorded, err := b.campaignRefs()
	if err != nil {
		return err
	}
	var s campaignSamples
	var first []block
	cal := newCalibrator(b.workers)
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start).Seconds() < b.opt.seconds; rep++ {
		c, err := b.portbenchRun(b.campaignArgs()...)
		cal.measure()
		if err == nil {
			err = c.simulated()
		}
		if err != nil {
			return err
		}
		b.check(c.exitErr == nil, "campaign %d: portbench: %v", rep, c.exitErr)
		if c.exitErr != nil {
			continue
		}
		_, blocks := splitOutput(c.stdout)
		ref := recorded
		if ref == nil {
			ref = first
		}
		b.checkTables(fmt.Sprintf("campaign %d", rep), blocks, want, ref)
		if first == nil {
			first = blocks
		}
		s.add(c, c.report.Total.SimCycles)
	}
	if len(s.wall) == 0 {
		return errors.New("no campaign finished")
	}
	s.report(b, cal)
	return nil
}

var storeFooter = regexp.MustCompile(`(?m)^store: (\d+) restored, (\d+) simulated`)

// populateStore runs the cold campaign that fills a fresh store, checks
// its tables, and returns the store directory, the tables and the
// campaign's simulated cycles.
func (b *bench) populateStore() (string, []block, uint64, error) {
	want, recorded, err := b.campaignRefs()
	if err != nil {
		return "", nil, 0, err
	}
	dir, err := os.MkdirTemp(b.opt.work, "store-")
	if err != nil {
		return "", nil, 0, err
	}
	cold, err := b.portbenchRun(b.campaignArgs("-store", dir)...)
	if err == nil && cold.exitErr != nil {
		err = fmt.Errorf("cold campaign: %w", cold.exitErr)
	}
	if err == nil {
		err = cold.simulated()
	}
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, 0, err
	}
	_, blocks := splitOutput(cold.stdout)
	b.checkTables("cold campaign", blocks, want, recorded)
	return dir, blocks, cold.report.Total.SimCycles, nil
}

// measureResume restores the campaign from a warm store that set-up
// fills, and checks that every table is byte-identical to the cold run's.
func measureResume(b *bench) error {
	want, _, err := b.campaignRefs()
	if err != nil {
		return err
	}
	dir, cold, cycles, err := b.populateStore()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var s campaignSamples
	var residual uint64
	footer := ""
	cal := newCalibrator(b.workers)
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start).Seconds() < b.opt.seconds; rep++ {
		c, err := b.portbenchRun(b.campaignArgs("-store", dir, "-resume")...)
		cal.measure()
		if err != nil {
			return err
		}
		b.check(c.exitErr == nil, "resume %d: portbench: %v", rep, c.exitErr)
		if c.exitErr != nil {
			continue
		}
		_, blocks := splitOutput(c.stdout)
		b.checkTables(fmt.Sprintf("resume %d", rep), blocks, want, cold)
		residual = c.report.Total.SimCycles
		if m := storeFooter.FindString(c.stdout); m != "" {
			footer = m
		}
		s.add(c, cycles)
	}
	if len(s.wall) == 0 {
		return errors.New("no resumed campaign finished")
	}
	// The footer counts store misses only; cells that bypass the store
	// (F7's mutated profiles, A6's multiprogrammed streams) simulate on
	// every resume without appearing in it.
	b.info("footer %q, yet %d of the campaign's %d cycles were simulated again", footer, residual, cycles)
	s.report(b, cal)
	return nil
}
