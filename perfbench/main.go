// Command perfbench is the repository benchmark. It drives the xBGAS
// runtime and collective engine through their public functions on one
// of three seeded, closed-loop SPMD workloads, all in lockstep so every
// modelled number repeats bit-exactly, verifies every output against a
// sequential oracle, and prints each metric by name and unit. The last
// line of standard output is one JSON object: the end-to-end metrics
// with --trace 0, the per-layer metrics of a separate traced run with
// --trace 1. See README.md for the workloads and the metric map.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload coll-bw-12 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"xbgas/internal/core"
	"xbgas/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload name: gups-8, coll-bw-12 or coll-lat-256")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	fs.BoolVar(&o.tiny, "tiny", false, "4-PE workloads with small payloads (self-test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace != 0
	sp, ok := lookup(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	// Lockstep runs one PE goroutine at a time; a second thread only
	// adds handoff noise to the host timings.
	runtime.GOMAXPROCS(1)
	fmt.Fprintf(stdout, "workload %s seed %d: %s\n", sp.name, o.seed, sp.why)

	var res result
	var err error
	if o.trace {
		res, err = measureTraced(sp, o, stdout)
	} else {
		res, err = measureUntraced(sp, o, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	printMetrics(stdout, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// setups is how many times the untraced run builds the workload; the
// median is setup_s and the warm-up iterations must agree exactly.
const setups = 5

// traceHeapGrowth bounds how far the traced half may grow the heap: the
// recorder keeps every event (gups-8 records ~0.4 GB per iteration).
const traceHeapGrowth = 512 << 20

// seedCheck fails unless a different seed changes the inputs.
func seedCheck(sp spec, o options) error {
	a, b := sp.make(o.seed, o.tiny), sp.make(o.seed+1, o.tiny)
	a.gen(0)
	b.gen(0)
	if a.fingerprint() == b.fingerprint() {
		return fmt.Errorf("seeds %d and %d generate the same inputs", o.seed, o.seed+1)
	}
	return nil
}

// sameModel reports whether two iterations agree in every modelled
// number: makespan, per-call spans, model counters and lost updates.
func sameModel(a, b sample) bool {
	return a.spans.makespan == b.spans.makespan && a.spans.cycles == b.spans.cycles &&
		a.counts == b.counts && a.tally.lost == b.tally.lost
}

var errNotExact = errors.New("modelled numbers differ between identical runs")

func measureUntraced(sp spec, o options, out io.Writer) (result, error) {
	if err := seedCheck(sp, o); err != nil {
		return result{}, err
	}
	var (
		x      *instance
		warm   sample
		setupS []float64
		tl     tally
		sc     hostScale
	)
	for i := 0; i < setups; i++ {
		x = nil
		sc.measure()
		runtime.GC()
		t0 := time.Now()
		xi, w, err := setUp(sp, o.seed, o.tiny, nil)
		setupS = append(setupS, time.Since(t0).Seconds())
		if err != nil {
			return result{}, err
		}
		w.tally = xi.w.check(xi.rt)
		tl.add(w.tally)
		if i > 0 && !sameModel(w, warm) {
			return result{}, fmt.Errorf("warm-up iteration of set-up %d: %w", i+1, errNotExact)
		}
		x, warm = xi, w
	}
	// Return the discarded set-ups' memory now rather than while timing.
	debug.FreeOSMemory()
	x.scale = &sc
	k := x.w.cycle()
	ser, err := x.loop(time.Duration(o.seconds*float64(time.Second)), k+3, 0)
	if err != nil {
		return result{}, err
	}
	tl.add(ser.tally)
	live := liveMB()
	runtime.KeepAlive(x)

	ref := referenceOf(ser.samples, k)
	decisions(out, x, ref)
	f := sc.factor()
	fmt.Fprintf(out, "%s\nmeasured host_s: %s\nmeasured setup_s: %s\n", &sc, describe(ser.hostSeconds()), describe(setupS))
	m := map[string]metric{
		"sim_cycles":           {ref.mean(ref.makespan), "cycles"},
		"sim_cycles.broadcast": {ref.mean(ref.cycles[kBroadcast]), "cycles"},
		"sim_cycles.allreduce": {ref.mean(ref.cycles[kAllReduce]), "cycles"},
		"host_s":               {median(ser.hostSeconds()) * f, "s"},
		"host_alloc_mb":        {median(ser.allocMB(k)), "MB"},
		"host_live_mb":         {live, "MB"},
		"setup_s":              {median(setupS) * f, "s"},
	}
	return finish(tl, m), nil
}

// describe summarises a sample set: count, quartiles and extremes.
func describe(v []float64) string {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(f float64) float64 { return s[int(f*float64(len(s)-1))] }
	return fmt.Sprintf("n=%d min=%.6g q1=%.6g median=%.6g q3=%.6g max=%.6g",
		len(s), s[0], q(0.25), median(s), q(0.75), s[len(s)-1])
}

func finish(tl tally, m map[string]metric) result {
	return result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: m}
}

// collOf maps a kind to the core collective it calls.
var collOf = [numColls]core.Collective{
	core.CollBroadcast, core.CollReduce, core.CollScatter,
	core.CollGather, core.CollAllReduce, core.CollAllGather,
}

// decisions prints what auto resolves to for each call shape and
// returns PlanCostShape's prediction (modelled ns) divided by the
// measured cycles per call, per collective.
func decisions(out io.Writer, x *instance, ref reference) [numColls]float64 {
	var ratios [numColls]float64
	n := x.rt.NumPEs()
	sh := core.Shape{PerNode: x.rt.PE(0).PEsPerNode()}
	for _, c := range x.w.shapes() {
		coll := collOf[c.kind]
		algo := core.AlgoAuto.SelectFor(coll, n, c.nelems, 8, sh)
		segs := core.SelectSegments(coll, algo, n, c.nelems, 8)
		measured := 0.0
		if calls := ref.calls[c.kind]; calls > 0 {
			measured = float64(ref.cycles[c.kind]) / float64(calls)
		}
		label, pred := "-", 0.0
		if p, err := core.CompilePlanFor(coll, algo, n, segs, sh); err == nil {
			label = p.Label()
			pred = core.PlanCostShape(p, core.CurrentTuning(), sh, c.nelems, 8)
		}
		if measured > 0 {
			ratios[c.kind] = pred / measured
		}
		fmt.Fprintf(out, "decision %-9s n=%d nelems=%d per_node=%d -> %s segments=%d plan=%s predicted_ns=%.0f measured_cycles=%.0f ratio=%.4f\n",
			c.kind, n, c.nelems, sh.PerNode, algo, segs, label, pred, measured, ratios[c.kind])
	}
	return ratios
}

// measureTraced runs the workload untraced and then traced, each from a
// fresh set-up with the same seed. The untraced half is profiled (CPU
// and heap, over the timed sections only) and records per-call host
// spans, so its shares explain host_s and host_alloc_mb; it also
// supplies the exact counts. The traced half attaches an obs.Recorder
// for the critical paths and must reproduce the untraced modelled
// numbers exactly; its host time over the untraced one is the tracing
// overhead.
func measureTraced(sp spec, o options, out io.Writer) (result, error) {
	if err := seedCheck(sp, o); err != nil {
		return result{}, err
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	x, warm, err := setUp(sp, o.seed, o.tiny, nil)
	if err != nil {
		return result{}, err
	}
	var tl tally
	warm.tally = x.w.check(x.rt)
	tl.add(warm.tally)
	x.setHostSpans(true)
	x.prof = newProfiler()
	x.scale = &hostScale{}
	k := x.w.cycle()
	plain, err := x.loop(budget/2, k+3, 0)
	if err != nil {
		return result{}, err
	}
	tl.add(plain.tally)
	ref := referenceOf(plain.samples, k)
	ratios := decisions(out, x, ref)
	prof, f := x.prof, x.scale.factor()
	fmt.Fprintf(out, "untraced %s\n", x.scale)
	x = nil
	debug.FreeOSMemory()

	rec := obs.NewRecorder(obs.Options{Trace: true})
	xt, twarm, err := setUp(sp, o.seed, o.tiny, rec)
	if err != nil {
		return result{}, err
	}
	twarm.tally = xt.w.check(xt.rt)
	tl.add(twarm.tally)
	if !sameModel(twarm, warm) {
		return result{}, fmt.Errorf("traced warm-up iteration: %w", errNotExact)
	}
	// The critical paths cover a root cycle, as the modelled numbers
	// do, unless the trace outgrows traceHeapGrowth first.
	xt.scale = &hostScale{}
	heapCap := uint64(liveMB()*1e6) + traceHeapGrowth
	traced, err := xt.loop(budget/2, k, heapCap)
	if err != nil {
		return result{}, err
	}
	tl.add(traced.tally)
	for i, s := range traced.samples[:min(k, len(traced.samples))] {
		if !sameModel(s, plain.samples[i]) {
			return result{}, fmt.Errorf("traced iteration %d: %w", i+1, errNotExact)
		}
	}
	run := xt.rt.Observability()
	cp, cpIters, coverage, err := critPaths(run, traced.samples[:min(k, len(traced.samples))])
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "traced %s\n", xt.scale)
	fmt.Fprintf(out, "measured untraced host_s: %s\nmeasured traced host_s: %s\n", describe(plain.hostSeconds()), describe(traced.hostSeconds()))
	fmt.Fprint(out, run.CriticalPathTable())

	m := map[string]metric{}
	hostS := median(plain.hostSeconds()) * f
	m["trace_overhead"] = metric{median(traced.hostSeconds()) * xt.scale.factor() / hostS, "ratio"}
	for mod, v := range prof.shares() {
		m["host_share."+mod] = metric{v, "share"}
	}
	allocMB := median(plain.allocMB(k))
	for mod, v := range prof.allocShares() {
		m["alloc_mb."+mod] = metric{v * allocMB, "MB"}
	}
	for _, k := range []kind{kBroadcast, kReduce, kScatter, kGather, kAllReduce, kAllGather, kBarrier, kRMA} {
		var v []float64
		for _, s := range plain.samples {
			v = append(v, float64(s.spans.hostNs[k])/1e6*f)
		}
		m["host_ms."+k.String()] = metric{median(v), "ms"}
	}
	c := ref.counts
	m["host_ns_per_msg"] = metric{hostS * 1e9 / max(ref.mean(c.msgs), 1), "ns"}
	m["host_ns_per_byte"] = metric{hostS * 1e9 / max(ref.mean(c.bytes), 1), "ns"}
	m["fabric.msgs"] = metric{ref.mean(c.msgs), "count"}
	m["fabric.bytes"] = metric{ref.mean(c.bytes), "bytes"}
	m["fabric.stall_cycles"] = metric{ref.mean(c.stall), "cycles"}
	m["mem.l1_hit_rate"] = metric{rate(c.l1Hit, c.l1Miss), "ratio"}
	m["mem.l2_hit_rate"] = metric{rate(c.l2Hit, c.l2Miss), "ratio"}
	m["mem.tlb_hit_rate"] = metric{rate(c.tlbHit, c.tlbMiss), "ratio"}
	m["mem.cycles"] = metric{ref.mean(c.memCycles), "cycles"}
	m["xbrtime.rma_calls"] = metric{ref.mean(c.puts + c.gets), "count"}
	m["xbrtime.barrier_calls"] = metric{ref.mean(c.barriers), "count"}
	m["gups.lost_updates"] = metric{ref.mean(uint64(ref.lost)), "count"}
	for _, k := range []kind{kReduce, kScatter, kGather, kAllGather, kBarrier} {
		m["sim_cycles."+k.String()] = metric{ref.mean(ref.cycles[k]), "cycles"}
	}
	for k := kind(0); int(k) < numColls; k++ {
		m["core.calls."+k.String()] = metric{ref.mean(uint64(ref.calls[k])), "count"}
		m["core.cost_ratio."+k.String()] = metric{ratios[k], "ns/cycle"}
		for cat, name := range stepCats {
			m["cp."+name+"."+k.String()] = metric{float64(cp[k][cat]) / float64(cpIters), "cycles"}
		}
	}
	m["cp.coverage"] = metric{coverage, "share"}
	return finish(tl, m), nil
}
