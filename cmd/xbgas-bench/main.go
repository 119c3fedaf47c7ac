// Command xbgas-bench regenerates the tables and figures of
//
//	Williams, Wang, Leidel, Chen. "Collective Communication for the
//	RISC-V xBGAS ISA Extension." ICPP 2019 Workshops.
//
// Usage:
//
//	xbgas-bench -all                # everything below, in order
//	xbgas-bench -table 1|2          # Table 1 (types), Table 2 (ranks)
//	xbgas-bench -figure 1|2|3|4|5   # register file, memory model,
//	                                # binomial tree, GUPS, Integer Sort
//	xbgas-bench -compare            # xBGAS vs message-passing transport
//	xbgas-bench -ablation NAME      # tree|size|topology|unroll|root|olb
//
//	xbgas-bench -gups N             # one GUPS measurement on N PEs
//
// GUPS/IS parameters can be scaled with -gups-table, -gups-updates,
// -is-keys, -is-maxkey, -is-iters. The fabric topology for kernels and
// sweeps is set with -topo (e.g. -topo grouped:8x16, -topo torus:32x32;
// echoed in StatsReport); -sweep runs a message-size sweep for one
// collective and -scale the 64–1024-PE scale-out grid across flat,
// grouped, and torus fabrics. The kernels' collective algorithm
// can be forced with -algo (use `-algo list` to print the registered
// planners) and message segmentation with -chunk (0 = auto-select,
// >0 forces that segment size in bytes, <0 disables segmentation);
// segmented executions show up in StatsReport's planners: tally as
// "collective/algorithm[seg=N]". xbgas-run has no such flags because
// it executes guest assembly, which encodes its own communication.
// Host hot paths can be profiled with -cpuprofile/-memprofile
// (inspect with `go tool pprof`).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"xbgas/internal/bench"
	"xbgas/internal/core"
	"xbgas/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xbgas-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		all      = fs.Bool("all", false, "regenerate every table and figure")
		table    = fs.Int("table", 0, "print a paper table (1 or 2)")
		figure   = fs.Int("figure", 0, "regenerate a paper figure (1-5)")
		csvOut   = fs.Bool("csv", false, "emit figure 4/5 sweeps as CSV instead of tables")
		compare  = fs.Bool("compare", false, "xBGAS vs message-passing transport comparison")
		micro    = fs.Bool("micro", false, "point-to-point put/get latency and bandwidth")
		traffic  = fs.Bool("traffic", false, "per-pair communication matrix of a random put storm")
		ablation = fs.String("ablation", "", "ablation study: tree|size|topology|unroll|root|olb|barrier|prefetch")

		gupsTable   = fs.Uint64("gups-table", bench.DefaultGUPSParams().TableWords, "GUPS table size in 64-bit words (power of two)")
		gupsUpdates = fs.Int("gups-updates", bench.DefaultGUPSParams().UpdatesPerPE, "GUPS updates per PE")
		gupsPEs     = fs.Int("gups", 0, "run one GUPS measurement on this many PEs (beyond the paper's 8-PE sweep)")
		isKeys      = fs.Int("is-keys", bench.DefaultISParams().TotalKeys, "IS total keys")
		isMaxKey    = fs.Int("is-maxkey", bench.DefaultISParams().MaxKey, "IS maximum key value")
		isIters     = fs.Int("is-iters", bench.DefaultISParams().Iterations, "IS iterations")
		algo        = fs.String("algo", "", "force a registered collective algorithm for the GUPS/IS kernels (\"list\" prints per-collective availability)")
		chunk       = fs.Int("chunk", 0, "collective segmentation chunk bytes: 0 = auto, >0 forces the segment size, <0 disables segmentation")
		sweep       = fs.String("sweep", "", "message-size sweep for a collective: allreduce|allgather|reduce_scatter|broadcast|reduce")
		scale       = fs.String("scale", "", "scale-out sweep (64-1024 PEs x flat/grouped/torus) for a collective: allreduce|allgather")
		topo        = fs.String("topo", "", "fabric topology spec for kernels and sweeps: flat|ring|torus[:WxH]|hypercube|grouped:[Gx]P|dragonfly:RxP")
		tune        = fs.Bool("tune", false, "calibrate the alpha-beta cost model on this machine and persist the tuning table")
		tuning      = fs.String("tuning", "", "load a persisted tuning table for auto algorithm selection (default "+core.DefaultTuningPath+" when present)")
		audit       = fs.Bool("audit", false, "audit the cost model: replay the collective grid and compare measured virtual cost against PlanCostShape")
		auditPEs    = fs.Int("audit-pes", 8, "PE count for -audit (<=16 runs in deterministic lockstep)")
		auditJSON   = fs.String("audit-json", "", "also write the -audit report as JSON to `file` (for tools/tracelens -audit)")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to `file`")
		memprofile = fs.String("memprofile", "", "write a heap profile at exit to `file`")

		traceOut = fs.String("trace", "", "write a Chrome trace-event JSON timeline of the GUPS/IS runs to `file` (loads in Perfetto)")
		metrics  = fs.Bool("metrics", false, "print event counters and latency histograms after the run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "xbgas-bench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "xbgas-bench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "xbgas-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects before the heap snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "xbgas-bench: %v\n", err)
			}
		}()
	}

	gups := bench.DefaultGUPSParams()
	gups.TableWords = *gupsTable
	gups.UpdatesPerPE = *gupsUpdates
	is := bench.DefaultISParams()
	is.TotalKeys = *isKeys
	is.MaxKey = *isMaxKey
	is.Iterations = *isIters

	if *algo == "list" {
		// Per-collective availability: which registered planners
		// implement each operation, with [seg] marking the ones that
		// compile a pipelined (segmented) form for it.
		for _, coll := range core.Collectives() {
			var entries []string
			for _, name := range core.PlannerNames() {
				pl, ok := core.LookupPlanner(core.Algorithm(name))
				if !ok || !pl.Supports(coll) {
					continue
				}
				e := name
				// A planner with no segmented form serves its
				// unsegmented plan for a segmented request.
				seg, _ := core.CompilePlanFor(coll, pl.Name, 4, 2, core.Shape{})
				base, _ := core.CompilePlanFor(coll, pl.Name, 4, 1, core.Shape{})
				if seg != base {
					e += " [seg]"
				}
				entries = append(entries, e)
			}
			if len(entries) == 0 {
				entries = []string{"(none)"}
			}
			fmt.Fprintf(stdout, "%-16s %s\n", coll.String()+":", strings.Join(entries, ", "))
		}
		return 0
	}
	if *tune {
		t, err := core.Calibrate()
		if err != nil {
			fmt.Fprintf(stderr, "xbgas-bench: tune: %v\n", err)
			return 1
		}
		core.SetTuning(t)
		path := *tuning
		if path == "" {
			path = core.DefaultTuningPath
		}
		if err := core.SaveTuning(path, t); err != nil {
			fmt.Fprintf(stderr, "xbgas-bench: tune: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "tuned %s: alpha=%.0fns beta=%.2fns/B elem=%.2fns/B flag=%.0fns barrier=%.0fns/PE copy=%.2f/%.2fns/B combine=%.2f/%.2fns/B\n",
			path, t.AlphaNs, t.BetaNsPerByte, t.ElemNsPerByte, t.FlagNs, t.BarrierNs,
			t.CopyNsPerByte, t.CopyElemNsPerByte, t.CombineNsPerByte, t.CombineElemNsPerByte)
		if *sweep == "" && *scale == "" {
			return 0
		}
	} else if *tuning != "" {
		if _, err := core.LoadTuning(*tuning); err != nil {
			fmt.Fprintf(stderr, "xbgas-bench: %v\n", err)
			return 1
		}
	}
	if *algo != "" {
		if _, ok := core.LookupPlanner(core.Algorithm(*algo)); !ok && *algo != string(core.AlgoAuto) {
			fmt.Fprintf(stderr, "xbgas-bench: unknown algorithm %q (registered: %s)\n",
				*algo, strings.Join(core.PlannerNames(), ", "))
			return 2
		}
		gups.Algo = core.Algorithm(*algo)
		is.Algo = core.Algorithm(*algo)
	}
	if *topo != "" {
		gups.Runtime.TopoSpec = *topo
		is.Runtime.TopoSpec = *topo
	}
	if *chunk != 0 {
		// Per-kernel params carry the override so library callers get
		// the same knob; the global set covers every other path the
		// driver exercises (ablations, figures, -compare).
		core.SetChunkBytes(*chunk)
		gups.Chunk = *chunk
		is.Chunk = *chunk
	}

	// Observability rides through the kernels' runtime configuration:
	// every runtime the GUPS/IS sweeps construct attaches to the same
	// recorder, so the timeline shows one Perfetto process per PE count.
	var rec *obs.Recorder
	if *traceOut != "" || *metrics {
		rec = obs.NewRecorder(obs.Options{Trace: *traceOut != "", Metrics: *metrics})
		// Stamp the model identity into the recorder so the trace header
		// carries it; tools/tracelens refuses to audit a trace against a
		// mismatched tuning table.
		tn := core.CurrentTuning()
		rec.SetModelMeta(obs.ModelMeta{
			TuningVersion:      tn.Version,
			TuningFabric:       tn.Fabric,
			TuningCalibratedAt: tn.CalibratedAt,
			ChunkBytes:         core.ChunkBytes(),
		})
		gups.Runtime.Obs = rec
		is.Runtime.Obs = rec
	}

	w := stdout
	failed := false
	run := func(name string, fn func(io.Writer) error) {
		if failed {
			return
		}
		if err := fn(w); err != nil {
			fmt.Fprintf(stderr, "xbgas-bench: %s: %v\n", name, err)
			failed = true
			return
		}
		fmt.Fprintln(w)
	}

	did := false
	if *all || *table == 1 {
		run("table 1", bench.Table1)
		did = true
	}
	if *all || *table == 2 {
		run("table 2", bench.Table2)
		did = true
	}
	if *all || *figure == 1 {
		run("figure 1", bench.Figure1)
		did = true
	}
	if *all || *figure == 2 {
		run("figure 2", bench.Figure2)
		did = true
	}
	if *all || *figure == 3 {
		run("figure 3", bench.Figure3)
		did = true
	}
	if *all || *figure == 4 {
		if *csvOut {
			run("figure 4", func(w io.Writer) error { return bench.FigureCSV(w, 4, gups, is) })
		} else {
			run("figure 4", func(w io.Writer) error { return bench.Figure4(w, gups) })
		}
		did = true
	}
	if *all || *figure == 5 {
		if *csvOut {
			run("figure 5", func(w io.Writer) error { return bench.FigureCSV(w, 5, gups, is) })
		} else {
			run("figure 5", func(w io.Writer) error { return bench.Figure5(w, is) })
		}
		did = true
	}
	if *all || *compare {
		run("comparison", bench.Comparison)
		did = true
	}
	if *micro {
		run("micro point-to-point", bench.MicroPointToPoint)
		did = true
	}
	if *traffic {
		run("traffic matrix", bench.TrafficMatrix)
		did = true
	}
	if *sweep != "" {
		op := bench.CollectiveOp(*sweep)
		switch op {
		case bench.OpAllReduce, bench.OpAllGather, bench.OpReduceScatter,
			bench.OpBroadcast, bench.OpReduce:
		default:
			fmt.Fprintf(stderr, "xbgas-bench: unknown sweep %q (allreduce|allgather|reduce_scatter|broadcast|reduce)\n", *sweep)
			return 2
		}
		run("sweep "+*sweep, func(w io.Writer) error { return bench.FigureSweep(w, op, *topo) })
		did = true
	}
	if *scale != "" {
		op := bench.CollectiveOp(*scale)
		switch op {
		case bench.OpAllReduce, bench.OpAllGather:
		default:
			fmt.Fprintf(stderr, "xbgas-bench: unknown scale sweep %q (allreduce|allgather)\n", *scale)
			return 2
		}
		run("scale "+*scale, func(w io.Writer) error { return bench.FigureScale(w, op) })
		did = true
	}
	if *audit {
		run(fmt.Sprintf("audit %d PEs", *auditPEs), func(w io.Writer) error {
			opt := bench.AuditOptions{PEs: *auditPEs}
			if *topo != "" {
				opt.Topos = []string{*topo}
			}
			rep, err := bench.RunAudit(opt)
			if err != nil {
				return err
			}
			if _, err := fmt.Fprint(w, rep.Markdown()); err != nil {
				return err
			}
			if *auditJSON != "" {
				f, err := os.Create(*auditJSON)
				if err != nil {
					return err
				}
				defer f.Close()
				if err := rep.WriteJSON(f); err != nil {
					return err
				}
			}
			return nil
		})
		did = true
	}
	if *gupsPEs > 0 {
		run(fmt.Sprintf("gups %d PEs", *gupsPEs), func(w io.Writer) error {
			r, err := bench.RunGUPS(gups, *gupsPEs)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(w, r)
			return err
		})
		did = true
	}
	ablations := map[string]func(io.Writer) error{
		"tree":     bench.AblationTreeVsLinear,
		"size":     bench.AblationMessageSize,
		"topology": bench.AblationTopology,
		"unroll":   bench.AblationUnroll,
		"root":     bench.AblationRoot,
		"olb":      bench.AblationOLB,
		"prefetch": bench.AblationPrefetch,
		"barrier":  bench.AblationBarrier,
	}
	if *all {
		run("micro point-to-point", bench.MicroPointToPoint)
		run("traffic matrix", bench.TrafficMatrix)
		for _, name := range []string{"tree", "size", "topology", "unroll", "root", "olb", "barrier", "prefetch"} {
			run("ablation "+name, ablations[name])
		}
		did = true
	} else if *ablation != "" {
		fn, ok := ablations[*ablation]
		if !ok {
			fmt.Fprintf(stderr, "xbgas-bench: unknown ablation %q\n", *ablation)
			return 2
		}
		run("ablation "+*ablation, fn)
		did = true
	}
	if rec != nil && did {
		if *metrics {
			fmt.Fprint(w, rec.MetricsReport())
		}
		if *traceOut != "" {
			if err := rec.WriteTraceFile(*traceOut); err != nil {
				fmt.Fprintf(stderr, "xbgas-bench: %v\n", err)
				return 1
			}
		}
	}
	if failed {
		return 1
	}
	if !did {
		fs.Usage()
		return 2
	}
	return 0
}
