package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
)

// Speed calibration. The benchmark shares a VM whose CPU speed drifts
// by a quarter between busy and quiet periods (siblings, cache, steal
// charged as CPU time), far more than any bound worth gating on. So
// every timed fleet run is bracketed by a fixed calibration kernel, and
// each time metric is rescaled to a reference speed: a run timed while
// the kernel ran at half the reference rate counts half its CPU time.
// The kernel is frozen in the benchmark and shares nothing with the
// program, so a change to the program moves the metrics in full.

// referenceKernelRate is the kernel rate (rounds per thread CPU-second)
// all time metrics are scaled to; it is the rate measured on the 2-vCPU
// Xeon VM the bounds were set on.
const referenceKernelRate = 20000.0

// calibRounds per calibration: about 12 ms at the reference rate.
const calibRounds = 200

// calibrator holds the kernel's buffers, so a calibration allocates
// nothing and never triggers a collection. It does not force one either:
// the program's collection work carries on across calibrations on other
// threads and is charged to the program, because callers time a span
// that includes the calibrations and subtract spentCPU.
type calibrator struct {
	ecg, abp, smooth []float64
	hist             [50 * 50]int
	sum              float64
	// spentCPU and spentWall are the kernel's own thread CPU time and
	// wall time, summed over every calibration so far.
	spentCPU, spentWall float64
}

func newCalibrator() *calibrator {
	const n = 1080
	return &calibrator{ecg: make([]float64, n), abp: make([]float64, n), smooth: make([]float64, n)}
}

// rate runs the kernel on a locked OS thread and returns its speed in
// rounds per thread CPU-second; only this thread's CPU time counts, so
// GC workers running on other threads do not slow the estimate.
func (c *calibrator) rate() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	w0, t0 := float64(nowNs())/1e9, threadCPUSeconds()
	for r := 0; r < calibRounds; r++ {
		c.round(r)
	}
	cpu := threadCPUSeconds() - t0
	c.spentCPU += cpu
	c.spentWall += float64(nowNs())/1e9 - w0
	return calibRounds / cpu
}

// round synthesizes a 3 s two-channel window, smooths it, scans it for
// local maxima and bins it into a 50×50 histogram: the pipeline's kind
// of work (float loops, branchy scans, scattered counts).
func (c *calibrator) round(r int) {
	phase := float64(r) * 0.01
	for i := range c.ecg {
		t := float64(i)/360 + phase
		c.ecg[i] = math.Sin(2*math.Pi*1.2*t) + 0.3*math.Sin(2*math.Pi*7*t)
		c.abp[i] = 90 + 20*math.Sin(2*math.Pi*1.2*t-0.6)
	}
	const w = 54
	var acc float64
	for i, v := range c.ecg {
		acc += v
		if i >= w {
			acc -= c.ecg[i-w]
		}
		c.smooth[i] = acc / w
	}
	peaks := 0
	for i := 1; i < len(c.smooth)-1; i++ {
		if c.smooth[i] > c.smooth[i-1] && c.smooth[i] >= c.smooth[i+1] && c.smooth[i] > 0.2 {
			peaks++
		}
	}
	c.hist = [50 * 50]int{}
	for i := range c.ecg {
		x := int((c.ecg[i] + 1.5) / 3 * 50)
		y := int((c.abp[i] - 60) / 60 * 50)
		if x >= 0 && x < 50 && y >= 0 && y < 50 {
			c.hist[y*50+x]++
		}
	}
	filled := 0
	for _, n := range c.hist {
		if n > 0 {
			filled++
		}
	}
	c.sum += float64(peaks) + float64(filled)/2500
}

// threadCPUSeconds returns the calling OS thread's user+system CPU time.
func threadCPUSeconds() float64 {
	const rusageThread = 1 // RUSAGE_THREAD
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for the calling thread
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// atReference converts seconds measured while the kernel ran at rate
// into seconds at the reference speed.
func atReference(seconds, rate float64) float64 {
	return seconds * rate / referenceKernelRate
}
