package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"

	"xbgas/internal/obs"
)

// Host-time shares of the traced run, by module. A CPU profile sample
// is charged to the scheduler or the collector when its leaf frames are
// in that part of the Go runtime, to memmove when the leaf copies
// memory, and otherwise to the module of its innermost frame in this
// repository.
var cpuModules = []string{
	"lockstep", "xbrtime", "sched", "gc", "memmove",
	"core.select", "core.exec", "core.combine",
	"fabric", "mem", "sim", "obs", "bench",
}

// allocModules are the packages allocations are attributed to.
var allocModules = []string{"xbrtime", "core", "fabric", "mem", "sim", "obs", "bench"}

const memProfileRate = 4096

// profiler collects a CPU profile and a heap-allocation profile over the
// timed sections of the traced run only.
type profiler struct {
	cpu      map[string]int64 // module -> sampled CPU ns
	cpuTotal int64
	alloc    map[string]float64 // module -> allocated bytes
	buf      bytes.Buffer
	before   map[string]int64 // stack -> allocated bytes so far
}

func newProfiler() *profiler {
	runtime.MemProfileRate = memProfileRate
	return &profiler{cpu: map[string]int64{}, alloc: map[string]float64{}}
}

// start brackets the beginning of a timed section.
func (p *profiler) start() error {
	before, err := allocProfile()
	if err != nil {
		return err
	}
	p.before = before
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

// stop brackets the end of a timed section and folds both profiles in.
func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	after, err := allocProfile()
	if err != nil {
		return err
	}
	for stk, b := range after {
		if d := b - p.before[stk]; d > 0 {
			if mod := allocModule(strings.Split(stk, ";")); mod != "" {
				p.alloc[mod] += float64(d)
			}
		}
	}
	samples, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return err
	}
	for _, s := range samples {
		if len(s.values) < 2 {
			continue
		}
		ns := s.values[1]
		p.cpu[cpuModule(s.stack)] += ns
		p.cpuTotal += ns
	}
	return nil
}

// allocProfile returns the cumulative allocated bytes per stack, as
// runtime/pprof scales them from the sampled heap profile. The heap
// profile publishes allocations a collection cycle late, hence the two
// forced collections.
func allocProfile() (map[string]int64, error) {
	runtime.GC()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(samples))
	for _, s := range samples {
		if len(s.values) >= 2 {
			out[strings.Join(s.stack, ";")] += s.values[1] // alloc_space
		}
	}
	return out, nil
}

// shares returns each CPU module's share of the sampled host time.
func (p *profiler) shares() map[string]float64 {
	out := map[string]float64{}
	for _, m := range cpuModules {
		if p.cpuTotal > 0 {
			out[m] = float64(p.cpu[m]) / float64(p.cpuTotal)
		} else {
			out[m] = 0
		}
	}
	return out
}

// allocShares returns each package's share of the estimated allocated
// bytes.
func (p *profiler) allocShares() map[string]float64 {
	total := 0.0
	for _, b := range p.alloc {
		total += b
	}
	out := map[string]float64{}
	for _, m := range allocModules {
		if total > 0 {
			out[m] = p.alloc[m] / total
		} else {
			out[m] = 0
		}
	}
	return out
}

const repoPrefix = "xbgas/internal/"

// packageOf maps a function name to this repository's module names:
// "xbrtime", "core", ... for internal packages, "bench" for this
// program, "" for anything else (the runtime and the standard library).
func packageOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	if !strings.HasPrefix(fn, repoPrefix) {
		return ""
	}
	rest := fn[len(repoPrefix):]
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		return rest[:i]
	}
	return rest
}

var (
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.gcStart",
		"runtime.markroot", "runtime.scanobject", "runtime.wbBufFlush", "runtime.gcWriteBarrier",
	}
	schedFrames = []string{
		"runtime.schedule", "runtime.park_m", "runtime.gopark", "runtime.goready", "runtime.ready",
		"runtime.mcall", "runtime.futex", "runtime.notesleep", "runtime.notewakeup", "runtime.wakep",
		"runtime.findRunnable", "runtime.semacquire", "runtime.semrelease", "runtime.newproc",
		"runtime.goexit", "runtime.lock2", "runtime.unlock2", "runtime.startm", "runtime.stopm",
		"runtime.usleep", "runtime.osyield", "runtime.mstart", "runtime.goschedImpl",
		"sync.runtime_notifyList", "runtime.notifyList", "runtime.casgstatus", "runtime.execute",
	}
	selectFuncs = []string{
		"core.Algorithm.Select", "core.resolveAlgorithm", "core.chooseAuto", "core.cheapestPlanner",
		"core.SelectSegments", "core.PlanCost", "core.CompilePlan", "core.shapeOf", "core.LookupPlanner",
		"core.(*Planner).Supports", "core.ChunkBytes", "core.CurrentTuning",
	}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// cpuModule classifies one CPU sample's stack (leaf first).
func cpuModule(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	leaf := stack[0]
	if strings.HasPrefix(leaf, "runtime.memmove") || strings.HasPrefix(leaf, "runtime.memclr") {
		return "memmove"
	}
	// Walk the runtime and standard-library frames at the leaf.
	i := 0
	for ; i < len(stack) && packageOf(stack[i]) == ""; i++ {
		if hasAnyPrefix(stack[i], gcFrames) {
			return "gc"
		}
	}
	for _, f := range stack[:i] {
		if hasAnyPrefix(f, schedFrames) {
			return "sched"
		}
	}
	if i == len(stack) {
		return "sched" // runtime-only stacks: idle, timers, signal handling
	}
	return codeModule(stack[i])
}

// codeModule names the module of one function of this repository.
func codeModule(fn string) string {
	pkg := packageOf(fn)
	short := strings.TrimPrefix(fn, repoPrefix)
	switch pkg {
	case "xbrtime":
		if strings.Contains(fn, "lockstep") || strings.Contains(fn, ".ls") {
			return "lockstep"
		}
	case "core":
		if hasAnyPrefix(short, selectFuncs) {
			return "core.select"
		}
		if strings.Contains(short, "ombine") || strings.HasPrefix(short, "core.arith") ||
			strings.HasPrefix(short, "core.bitwise") || strings.HasPrefix(short, "core.Identity") {
			return "core.combine"
		}
		return "core.exec"
	}
	return pkg
}

// allocModule attributes an allocation to the innermost frame of this
// repository on its stack (leaf first). The profiler's own allocations,
// made while it brackets a timed section, are dropped ("").
func allocModule(stack []string) string {
	mod := "other"
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime/pprof.") || strings.HasPrefix(f, "main.(*profiler)") {
			return ""
		}
		if pkg := packageOf(f); pkg != "" && mod == "other" {
			mod = pkg
		}
	}
	return mod
}

// stepCats lists the critical-path categories in metric-name form.
var stepCats = [obs.NumStepCats]string{
	obs.CatOverhead: "overhead", obs.CatTransfer: "transfer", obs.CatDataWait: "data_wait",
	obs.CatFlagWait: "flag_wait", obs.CatBarrierWait: "barrier_wait", obs.CatCombine: "combine",
	obs.CatCopy: "copy", obs.CatSignal: "signal",
}

// critPaths sums the extracted critical paths of the traced iterations'
// collective calls per kind and category, and returns the number of
// iterations and the attributed (non-overhead) share of the paths'
// total. Each call's path must tile exactly the span the benchmark
// measured around it.
func critPaths(run *obs.Run, samples []sample) (sums [numColls][obs.NumStepCats]uint64, iters int, coverage float64, err error) {
	var total, overhead uint64
	for _, s := range samples {
		call := s.callLo
		for i, k := range s.spans.order {
			if int(k) >= numColls {
				continue
			}
			cp, ok := run.ExtractCallPath(call)
			if !ok || !strings.HasPrefix(cp.Name, k.String()) {
				return sums, 0, 0, fmt.Errorf("call %d: no critical path for %s (trace names %q)", call, k, cp.Name)
			}
			if cp.Total() != s.spans.perCall[i] {
				return sums, 0, 0, fmt.Errorf("critical path of %s covers %d cycles, the call took %d", cp.Name, cp.Total(), s.spans.perCall[i])
			}
			call++
			by := cp.ByCat()
			for c := range by {
				sums[k][c] += by[c]
			}
			total += cp.Total()
			overhead += by[obs.CatOverhead]
		}
		if call != s.callHi {
			return sums, 0, 0, fmt.Errorf("trace holds %d calls for an iteration, the benchmark made %d", s.callHi-s.callLo, call-s.callLo)
		}
	}
	coverage = 1
	if total > 0 {
		coverage = 1 - float64(overhead)/float64(total)
	}
	return sums, len(samples), coverage, nil
}
