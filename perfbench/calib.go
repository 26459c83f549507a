package main

import (
	"fmt"
	"sync"
	"time"
)

// The per-thread speed of a shared cloud host drifts by tens of percent
// over seconds to minutes as other tenants come and go, with no steal time
// and CPU time equal to wall time, so neither CPU time nor the fastest
// repetition of one run removes it. The benchmark therefore times a fixed
// calibration kernel between repetitions and scales the run's fastest
// host times by calRef over the kernel's fastest reading: both fastest
// figures come from the host's quietest moments in the run. Over four
// minutes of back-to-back 1M-instruction port-bound cells on a 2-vCPU Xeon
// host, the spread of each 28-second window's fastest cell fell from 0.071
// to 0.021 of the median. Scaling each repetition by its own readings
// instead lets the minimum pick out noisy readings, and on a quiet host
// spread the figure more than it was. The kernel is plain Go with no
// allocation and no portsim code, so nothing the program does changes it;
// a slower program still reads slower.

// calRef is the calibration kernel's time on the reference host: the
// 2-vCPU Xeon host the benchmark was tuned on, in its fast phases.
const calRef = 0.050

// calWords is the size of each worker's kernel table, 1 MiB: well past L1
// and about L2 on common hosts, like the simulator's working set.
const calWords = 1 << 18

type calibrator struct {
	tables [][]uint32
	times  []float64
}

// newCalibrator makes a calibrator that runs the kernel on workers threads
// at once, the number the measured program runs, and takes its first
// reading.
func newCalibrator(workers int) *calibrator {
	c := &calibrator{tables: make([][]uint32, workers)}
	for i := range c.tables {
		c.tables[i] = make([]uint32, calWords)
	}
	c.measure()
	return c
}

// factor converts the run's fastest host times into reference seconds:
// calRef over the kernel's fastest reading.
func (c *calibrator) factor() float64 { return calRef / fastest(c.times) }

// info describes the readings for the run's info line.
func (c *calibrator) info() string {
	return fmt.Sprintf("calibration kernel min %.1fms p50 %.1fms over %d readings (reference %.0fms)",
		1e3*fastest(c.times), 1e3*median(c.times), len(c.times), 1e3*calRef)
}

// measure runs the kernel on every table at once and records the mean of
// their times in seconds.
func (c *calibrator) measure() {
	times := make([]float64, len(c.tables))
	var wg sync.WaitGroup
	for i, t := range c.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			kernel(t)
			times[i] = time.Since(t0).Seconds()
		}()
	}
	wg.Wait()
	sum := 0.0
	for _, t := range times {
		sum += t
	}
	c.times = append(c.times, sum/float64(len(times)))
}

// sink keeps the kernel's result live.
var sink uint32

// kernel is a fixed mix of dependent loads, stores, data-dependent
// branches and multiplies over a 1 MiB table, driven by xorshift.
func kernel(table []uint32) {
	for i := range table {
		table[i] = uint32(i * 2654435761)
	}
	x := uint64(88172645463325252)
	var acc uint32
	for i := 0; i < 4_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := uint32(x) & (calWords - 1)
		v := table[j]
		switch v & 3 {
		case 0:
			acc += v ^ uint32(x>>32)
		case 1:
			acc -= v >> 3
		case 2:
			acc *= v | 1
		default:
			table[(j+v)&(calWords-1)] ^= acc
		}
	}
	sink += acc
}
