package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The host-time metrics are measured on a shared machine whose memory
// system and cores other tenants load: the same iteration runs up to
// 1.8× slower for minutes at a time, far past any useful bound. A fixed
// probe, timed before every set-up and every iteration, tracks much of
// that slowdown, and the host-time metrics are reported at the probe's
// reference speed:
//
//	reported = measured × probeRefS / median(probe times of the run)
//
// The probe has two parts, because the workloads lean on two host
// resources: random read-modify-writes over a 64 MiB table (the memory
// models and payloads), and goroutine handoffs around a ring as long as
// the largest workload's PE count (the lockstep scheduler). The handoffs
// take about three quarters of the probe's time: on the baseline machine
// they tracked the slowdown of coll-bw-12 and coll-lat-256 best, the
// table that of gups-8. It is this file's own code over memory outside
// the Go heap, so no change to the simulator moves it, and the measured
// times are printed next to the reported ones.

const (
	probeWords  = 8 << 20 // 64 MiB of uint64
	probeOps    = 1 << 17 // random read-modify-writes per probe
	probeRing   = 256     // goroutines in the handoff ring
	probeRounds = 200     // trips around the ring per probe
)

// probeRefS is a round figure just under the fastest per-run probe
// medians (0.0146 s) on the 2-vCPU Intel Xeon virtual machine where
// BASELINE.md was recorded: reported host times are in seconds at that
// probe speed.
const probeRefS = 0.014

var (
	probeMem   = mapProbe()
	probeChans []chan int // the ring, started by the first probe
	probeState uint64     = 0x9e3779b97f4a7c15
)

// mapProbe maps the probe's table outside the Go heap, so it is neither
// scanned nor counted in host_live_mb, and touches every page once.
func mapProbe() []uint64 {
	b, err := syscall.Mmap(-1, 0, probeWords*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("perfbench: probe mmap: %v", err))
	}
	t := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), probeWords)
	for i := range t {
		t[i] = uint64(i)
	}
	return t
}

// startRing starts probeRing goroutines, each passing what it receives
// on its channel to the next; the last channel is read by the prober.
func startRing() {
	probeChans = make([]chan int, probeRing+1)
	for i := range probeChans {
		probeChans[i] = make(chan int)
	}
	for i := 0; i < probeRing; i++ {
		go func(in, out chan int) {
			for v := range in {
				out <- v + 1
			}
		}(probeChans[i], probeChans[i+1])
	}
}

// probe times one pass of both parts.
func probe() time.Duration {
	if probeChans == nil {
		startRing()
	}
	x, t := probeState, probeMem
	t0 := time.Now()
	var acc uint64
	for i := 0; i < probeOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += t[x&(probeWords-1)]
		t[(x>>32)&(probeWords-1)] = acc
	}
	for r := 0; r < probeRounds; r++ {
		probeChans[0] <- r
		<-probeChans[probeRing]
	}
	d := time.Since(t0)
	probeState = x
	return d
}

// hostScale collects the probe times of one run.
type hostScale struct {
	probes []time.Duration
}

func (h *hostScale) measure() { h.probes = append(h.probes, probe()) }

func (h *hostScale) seconds() []float64 {
	v := make([]float64, len(h.probes))
	for i, d := range h.probes {
		v[i] = d.Seconds()
	}
	return v
}

// factor is probeRefS over the median probe time.
func (h *hostScale) factor() float64 { return probeRefS / median(h.seconds()) }

func (h *hostScale) String() string {
	return fmt.Sprintf("probe_s: %s reference=%g slowdown=%.4f", describe(h.seconds()), probeRefS, 1/h.factor())
}
