package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"xbgas/internal/obs"
	"xbgas/internal/xbrtime"
)

// spec describes one workload: its name, why it exists, and how to build
// it (tiny selects the self-test size).
type spec struct {
	name string
	why  string
	make func(seed uint64, tiny bool) workload
}

var specs = []spec{
	{
		name: "gups-8",
		why:  "fine-grained one-sided RMA: lockstep put/get/Wait, per-message fabric booking, a capacity-missing memory hierarchy",
		make: func(seed uint64, tiny bool) workload {
			if tiny {
				return newGUPS(seed, 4, 1<<18, 512, 64)
			}
			return newGUPS(seed, 8, 1<<21, 16<<10, 64)
		},
	},
	{
		name: "coll-bw-12",
		why:  "bandwidth regime at a non-power-of-two PE count: plan executor, chunked data moves, combine kernels",
		make: func(seed uint64, tiny bool) workload {
			pes, n := 12, 1<<17 // 1 MiB of int64
			if tiny {
				pes, n = 4, 1<<10
			}
			return newCollWork(seed, pes, "", []collCall{
				{kBroadcast, n}, {kReduce, n}, {kScatter, n},
				{kGather, n}, {kAllReduce, n}, {kAllGather, n},
			})
		},
	},
	{
		name: "coll-lat-256",
		why:  "latency regime at scale on grouped nodes: scheduler handoffs, flags and barriers, per-call selection, hierarchical plans",
		make: func(seed uint64, tiny bool) workload {
			pes, topo := 256, "grouped:16"
			if tiny {
				pes, topo = 4, "grouped:2"
			}
			return newCollWork(seed, pes, topo, []collCall{
				{kBroadcast, 8}, {kAllReduce, 8}, {kAllGather, pes}, {kBarrier, 0},
			})
		},
	},
}

func lookup(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// instance is one set-up runtime with its workload.
type instance struct {
	w     workload
	rt    *xbrtime.Runtime
	logs  []*peLog
	it    int        // next iteration
	prof  *profiler  // traced run only
	scale *hostScale // probed before each iteration when set
}

// sample is one iteration's measurement.
type sample struct {
	host   time.Duration
	alloc  uint64 // heap bytes allocated during the timed section
	heap   uint64 // heap bytes in use at its end
	spans  spans
	counts counters
	tally  tally
	callLo int // obs call index range of the iteration (traced only)
	callHi int
}

// setUp builds the runtime, allocates the symmetric buffers, writes the
// inputs and runs one warm-up iteration, which fills the plan and
// decision caches and the modelled caches. rec attaches observability
// (nil for the untraced run).
func setUp(sp spec, seed uint64, tiny bool, rec *obs.Recorder) (*instance, sample, error) {
	w := sp.make(seed, tiny)
	cfg := w.config()
	cfg.Deterministic = true
	cfg.Obs = rec
	rt, err := xbrtime.New(cfg)
	if err != nil {
		return nil, sample{}, err
	}
	x := &instance{w: w, rt: rt}
	for i := 0; i < rt.NumPEs(); i++ {
		x.logs = append(x.logs, &peLog{})
	}
	if err := rt.Run(w.alloc); err != nil {
		return nil, sample{}, fmt.Errorf("alloc: %w", err)
	}
	s, err := x.iterate()
	return x, s, err
}

// iterate runs the next iteration: inputs are generated and written
// first, the timed section is one Runtime.Run of the workload body, and
// the outputs are left for check.
func (x *instance) iterate() (sample, error) {
	it := x.it
	x.it++
	x.w.gen(it)
	x.w.poke(x.rt)
	for _, l := range x.logs {
		l.reset()
	}
	var s sample
	run := x.rt.Observability()
	s.callLo = run.NumCalls()
	if x.scale != nil {
		x.scale.measure()
	}
	runtime.GC()
	if x.prof != nil {
		if err := x.prof.start(); err != nil {
			return s, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := snapshot(x.rt)
	t0 := time.Now()
	err := x.rt.Run(func(pe *xbrtime.PE) error {
		l := x.logs[pe.MyPE()]
		l.enter = pe.Now()
		err := x.w.body(pe, l)
		l.exit = pe.Now()
		return err
	})
	s.host = time.Since(t0)
	runtime.ReadMemStats(&m1)
	if x.prof != nil {
		if perr := x.prof.stop(); err == nil {
			err = perr
		}
	}
	if err != nil {
		return s, fmt.Errorf("iteration %d: %w", it, err)
	}
	s.alloc = m1.TotalAlloc - m0.TotalAlloc
	s.heap = m1.HeapAlloc
	s.counts = snapshot(x.rt).sub(c0)
	s.callHi = run.NumCalls()
	s.spans, err = collect(x.logs)
	return s, err
}

// setHostSpans switches host timestamps on the per-call logs.
func (x *instance) setHostSpans(on bool) {
	for _, l := range x.logs {
		l.host = on
	}
}

// series is the result of a timed loop: every sample, the first of which
// is the reference iteration whose model numbers are reported.
type series struct {
	samples []sample
	tally   tally
}

// loop runs and verifies iterations until budget has passed and at least
// minSamples were taken. With heapCap > 0 it also stops, after at least
// one iteration, once the heap holds more than heapCap bytes.
func (x *instance) loop(budget time.Duration, minSamples int, heapCap uint64) (series, error) {
	var out series
	start := time.Now()
	for len(out.samples) < minSamples || time.Since(start) < budget {
		if n := len(out.samples); heapCap > 0 && n > 0 && out.samples[n-1].heap > heapCap {
			break
		}
		s, err := x.iterate()
		if err != nil {
			return out, err
		}
		s.tally = x.w.check(x.rt)
		out.tally.add(s.tally)
		out.samples = append(out.samples, s)
	}
	return out, nil
}

func (s series) hostSeconds() []float64 {
	var v []float64
	for _, x := range s.samples {
		v = append(v, x.host.Seconds())
	}
	return v
}

// allocMB lists the heap allocation of the iterations after the first
// k (the first root cycle, whose calls compile a plan for each new root).
func (s series) allocMB(k int) []float64 {
	var v []float64
	for _, x := range s.samples[min(k, len(s.samples)):] {
		v = append(v, float64(x.alloc)/1e6)
	}
	return v
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// liveMB forces a collection and returns the live heap in MB.
func liveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
