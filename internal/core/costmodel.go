package core

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"xbgas/internal/fabric"
	"xbgas/internal/xbrtime"
)

// The alpha–beta cost model behind AlgoAuto. Each registered planner's
// plan is priced as a critical path — per round, the most loaded actor;
// per step, a latency term plus a per-byte term — with coefficients
// calibrated once per fabric by Calibrate (xbgas-bench -tune) and
// persisted as a JSON tuning table. The structure matters as much as
// the coefficients: a total-traffic model cannot separate the linear
// and binomial broadcasts (both move (n−1)·B bytes), but the critical
// path does — the flat algorithm serialises every byte through the
// root's port while the tree spreads rounds across actors. The per-byte
// coefficients are split by data path because the bandwidth-optimal
// plans move payload through the line-granular bulk accessors while the
// paper's plans stream element-at-a-time; the two differ by more than
// an order of magnitude and the crossover between binomial and
// ring/rabenseifner lives exactly in that gap.

// Tuning holds the calibrated machine coefficients, all in
// nanoseconds (per byte where named so). The zero value is unusable;
// start from DefaultTuning or LoadTuning.
type Tuning struct {
	// Version guards the schema of persisted tables.
	Version int `json:"version"`
	// Fabric names the fabric model the table was calibrated on.
	Fabric string `json:"fabric,omitempty"`
	// CalibratedAt is an RFC 3339 stamp of the calibration run.
	CalibratedAt string `json:"calibrated_at,omitempty"`

	// AlphaNs is the per-message cost of one remote put/get: issue
	// overhead plus fabric latency.
	AlphaNs float64 `json:"alpha_ns"`
	// BetaNsPerByte is the per-byte cost of a chunked (line-granular)
	// transfer; ElemNsPerByte of an element-at-a-time stream.
	BetaNsPerByte float64 `json:"beta_ns_per_byte"`
	ElemNsPerByte float64 `json:"elem_ns_per_byte"`
	// FlagNs is the cost of one signal/wait-flag dependency edge.
	FlagNs float64 `json:"flag_ns"`
	// BarrierNs is the per-PE cost of one world barrier.
	BarrierNs float64 `json:"barrier_ns"`
	// CopyNsPerByte / CopyElemNsPerByte price local staging copies on
	// the bulk and element paths; Combine* price reduction folds.
	CopyNsPerByte        float64 `json:"copy_ns_per_byte"`
	CopyElemNsPerByte    float64 `json:"copy_elem_ns_per_byte"`
	CombineNsPerByte     float64 `json:"combine_ns_per_byte"`
	CombineElemNsPerByte float64 `json:"combine_elem_ns_per_byte"`

	// Per-link-class transfer coefficients for grouped (Classed)
	// topologies, calibrated on the simulator's virtual clock: a 2-PE
	// fabric is built with both PEs on one node (intra) and on two
	// nodes (inter) and blocking chunked puts are timed in cycles.
	// Unlike the host-time coefficients above — which price what the
	// host pays to simulate a step — these price what the modelled
	// fabric charges for it, which is what a grouped topology's
	// makespan is made of. PlanCostShape swaps them in for the α/β of
	// put/get steps when the shape is grouped; all-zero (a v1 table)
	// disables class pricing.
	IntraAlphaNs       float64 `json:"intra_alpha_ns,omitempty"`
	IntraBetaNsPerByte float64 `json:"intra_beta_ns_per_byte,omitempty"`
	InterAlphaNs       float64 `json:"inter_alpha_ns,omitempty"`
	InterBetaNsPerByte float64 `json:"inter_beta_ns_per_byte,omitempty"`
}

// TuningVersion is the persisted-table schema version. Version 2 added
// the per-link-class coefficients.
const TuningVersion = 2

// DefaultTuningPath is where SaveTuning/LoadTuning look when given "".
const DefaultTuningPath = "docs/TUNING.json"

// DefaultTuning returns the baked-in coefficients, measured by
// Calibrate on the development machine's default fabric. Absolute
// values vary machine to machine but the ratios that drive selection —
// element vs bulk path, alpha vs per-byte — are properties of the
// simulator's cost accounting and are stable.
func DefaultTuning() Tuning {
	return Tuning{
		Version:              TuningVersion,
		Fabric:               "default",
		AlphaNs:              304,
		BetaNsPerByte:        1.28,
		ElemNsPerByte:        5.48,
		FlagNs:               60,
		BarrierNs:            344,
		CopyNsPerByte:        1.97,
		CopyElemNsPerByte:    15.5,
		CombineNsPerByte:     5.49,
		CombineElemNsPerByte: 25.5,
		IntraAlphaNs:         121,
		IntraBetaNsPerByte:   1.03,
		InterAlphaNs:         629,
		InterBetaNsPerByte:   3.55,
	}
}

var (
	tuningMu  sync.RWMutex
	tuningCur = DefaultTuning()
)

// CurrentTuning returns the tuning table selection currently prices
// against.
func CurrentTuning() Tuning {
	tuningMu.RLock()
	t := tuningCur
	tuningMu.RUnlock()
	return t
}

// SetTuning installs a tuning table and invalidates cached auto
// decisions.
func SetTuning(t Tuning) {
	tuningMu.Lock()
	tuningCur = t
	tuningMu.Unlock()
	invalidateAuto()
}

// SaveTuning writes the table as JSON to path ("" =
// DefaultTuningPath), creating parent directories as needed.
func SaveTuning(path string, t Tuning) error {
	if path == "" {
		path = DefaultTuningPath
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadTuning reads a persisted table ("" = DefaultTuningPath) and
// installs it.
func LoadTuning(path string) (Tuning, error) {
	if path == "" {
		path = DefaultTuningPath
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return Tuning{}, err
	}
	var t Tuning
	if err := json.Unmarshal(data, &t); err != nil {
		return Tuning{}, fmt.Errorf("core: parsing tuning table %s: %w", path, err)
	}
	if t.Version != TuningVersion {
		return Tuning{}, fmt.Errorf("core: tuning table %s has version %d, want %d (re-run -tune)",
			path, t.Version, TuningVersion)
	}
	SetTuning(t)
	return t, nil
}

// PlanCostShape prices a plan under an explicit tuning table and fabric
// shape, in modelled nanoseconds: the one plan-cost function, the
// projection AlgoAuto minimises over and the model the audit measures.
// Blocking plans cost the sum over rounds of the most loaded actor's
// work plus each closing barrier; flag-pipelined plans cost the most
// loaded actor's local work plus PipelineDepth hops of one segment
// each. Counts are resolved with the equal-block model (block v ≈
// ⌈nelems/n⌉), which is exact for AdjChunks plans and the common
// uniform-vector case.
//
// On a grouped shape each put/get is priced with the per-link-class
// α/β of its endpoints' nodes (virtual-clock coefficients; see Tuning),
// evaluated in virtual-rank space — exact at the canonical root 0 and a
// rotation elsewhere. Element-path transfers keep the host element β as
// a floor: their per-element accessor cost dominates any wire rate.
// Local copy/combine/barrier terms keep the host coefficients on every
// shape.
func PlanCostShape(p *Plan, tn Tuning, sh Shape, nelems, width int) float64 {
	n := p.NPEs
	if n < 1 {
		n = 1
	}
	per, rem := nelems/n, nelems%n
	blockOf := func(v int) int {
		if v < rem {
			return per + 1
		}
		return per
	}
	adjOf := func(v int) int {
		m := v
		if m > rem {
			m = rem
		}
		return v*per + m
	}
	segs := p.Segments
	if segs < 1 {
		segs = 1
	}
	segOf := func(k int) int {
		q, r := nelems/segs, nelems%segs
		if k < r {
			return q + 1
		}
		return q
	}
	countOne := func(s *Step, cv int) int {
		switch s.Count {
		case CountBlock:
			return blockOf(cv)
		case CountSubtree:
			hi := cv + (1 << uint(s.CB))
			if hi > n {
				hi = n
			}
			return adjOf(hi) - adjOf(cv)
		case CountRun:
			hi := cv + s.CB
			if hi > n {
				hi = n
			}
			if hi <= cv {
				return 0
			}
			return adjOf(hi) - adjOf(cv)
		case CountSeg:
			return segOf(cv)
		}
		return nelems
	}
	// count is the step's total payload across its multi-block
	// expansion; msgs its message multiplicity.
	count := func(s *Step) int {
		if s.Blocks <= 1 {
			return countOne(s, s.CV)
		}
		total, cv := 0, s.CV
		for t := 0; t < s.Blocks; t++ {
			total += countOne(s, cv)
			if s.Count == CountBlock || s.Count == CountRun {
				cv += s.BStride
			}
		}
		return total
	}
	msgs := func(s *Step) float64 {
		if s.Blocks > 1 {
			return float64(s.Blocks)
		}
		return 1
	}
	bulk := p.Chunked || p.FlagWords > 0
	xferB := tn.ElemNsPerByte
	if bulk {
		xferB = tn.BetaNsPerByte
	}
	grouped := !sh.flat(n) && tn.IntraAlphaNs > 0 && tn.InterAlphaNs > 0
	// alphaBeta resolves a transfer's α/β from its endpoints' link
	// class. Virtual ranks map to nodes directly: pricing is anchored
	// at root 0, where virtual and logical ranks coincide.
	alphaBeta := func(actor, peer int) (float64, float64) {
		if !grouped || peer < 0 {
			return tn.AlphaNs, xferB
		}
		a, b := tn.IntraAlphaNs, tn.IntraBetaNsPerByte
		if actor/sh.PerNode != peer/sh.PerNode {
			a, b = tn.InterAlphaNs, tn.InterBetaNsPerByte
		}
		if !bulk && xferB > b {
			b = xferB
		}
		return a, b
	}
	copyB, combB := tn.CopyElemNsPerByte, tn.CombineElemNsPerByte
	if bulk {
		copyB, combB = tn.CopyNsPerByte, tn.CombineNsPerByte
	}
	barrier := tn.BarrierNs * float64(n)
	if grouped {
		// On a grouped shape the transfer terms are virtual-clock prices,
		// so the barrier must be too: a dissemination barrier is
		// ⌈log₂n⌉ exchange rounds with mostly cross-node partners, not
		// the host's linear-in-n goroutine turnover. Mixing the units
		// charges every round a barrier ~n/log n too large and skews
		// selection toward low-round-count plans regardless of topology.
		barrier = tn.InterAlphaNs * float64(CeilLog2(n))
	}

	if p.FlagWords > 0 {
		// Pipelined: segments stream through the dependency chain, so
		// the transfer critical path is PipelineDepth hops of one
		// segment each; local staging/folding work does not pipeline
		// away and is charged to the busiest actor in full.
		local := make([]float64, n)
		for ri := range p.Rounds {
			r := &p.Rounds[ri]
			for si := range r.Steps {
				s := &r.Steps[si]
				if s.Actor == ActorAll {
					continue
				}
				b := float64(count(s) * width)
				switch s.Kind {
				case StepCopy:
					local[s.Actor] += b * copyB
				case StepCombine:
					local[s.Actor] += b * combB
				}
			}
		}
		var l float64
		for _, v := range local {
			if v > l {
				l = v
			}
		}
		hopA := tn.AlphaNs
		if grouped {
			// Pipelined chains thread every PE, so hops cross node
			// boundaries; the inter coefficients are the safe bound.
			hopA = tn.InterAlphaNs
			if bulk {
				xferB = tn.InterBetaNsPerByte
			}
		}
		hop := hopA + tn.FlagNs + float64(segOf(0)*width)*xferB
		return l + float64(p.PipelineDepth())*hop + barrier
	}

	var total float64
	acc := make([]float64, n)
	for ri := range p.Rounds {
		r := &p.Rounds[ri]
		for i := range acc {
			acc[i] = 0
		}
		closing := false
		for si := range r.Steps {
			s := &r.Steps[si]
			if s.Actor == ActorAll {
				if s.Kind == StepBarrier {
					closing = true
				}
				continue
			}
			b := float64(count(s) * width)
			switch s.Kind {
			case StepPut:
				a, bb := alphaBeta(s.Actor, s.Peer)
				acc[s.Actor] += msgs(s)*a + b*bb
			case StepGet:
				// A get is a round trip — request out, data back — so it
				// pays the message latency twice where a put pays once.
				a, bb := alphaBeta(s.Actor, s.Peer)
				acc[s.Actor] += msgs(s)*2*a + b*bb
			case StepCopy:
				acc[s.Actor] += b * copyB
			case StepCombine:
				acc[s.Actor] += b * combB
			case StepSignal:
				acc[s.Actor] += tn.FlagNs
			}
		}
		m := 0.0
		for _, v := range acc {
			if v > m {
				m = v
			}
		}
		total += m
		if closing {
			total += barrier
		}
	}
	return total
}

// Auto-selection decision cache. Decisions are cached per
// {collective, PE count, payload log₂-bucket} — the cost curves are
// smooth enough that one decision per size doubling is safe — and the
// whole cache is invalidated when its inputs change: a new planner, a
// new tuning table, or a -chunk override (which moves the segmented
// candidates).
type autoKey struct {
	coll Collective
	n    int
	sz   int
	per  int // shape PEs-per-node; 0 = flat
}

var (
	autoGen      atomic.Uint64
	autoMu       sync.Mutex
	autoCache    = map[autoKey]Algorithm{}
	autoCacheGen uint64
)

// invalidateAuto drops every cached auto decision.
func invalidateAuto() { autoGen.Add(1) }

// SmallMessageBytes is the payload size below which auto selection
// skips the cost model for the rooted collectives and keeps the
// paper's default, the binomial tree: tiny messages are latency-bound,
// every candidate finishes within a few barrier times of every other,
// and the model's barrier-versus-alpha pricing is noisier than the
// real differences down there. The rootless collectives get the lower
// TinyMessageBytes floor instead — their bandwidth-optimal planners
// keep logarithmic depth while moving less data, so the model stays
// reliable much further down.
const SmallMessageBytes = 1024

// TinyMessageBytes is the all-reduce floor: below a cache line of
// payload the per-chunk counts round to single elements and the
// binomial reduce+broadcast's fewer synchronisation points win on
// both clocks. The other rootless collectives stay on the model even
// here — binomial allgather is a gather plus a broadcast and loses at
// every size the shallower doubling or ring forms are available.
const TinyMessageBytes = 128

// rootedColl reports whether the collective is rooted (one PE sources
// or sinks the full payload), where the binomial tree is the canonical
// small-message choice.
func rootedColl(coll Collective) bool {
	switch coll {
	case CollBroadcast, CollReduce, CollScatter, CollGather:
		return true
	}
	return false
}

// chooseAuto resolves AlgoAuto: with ≤ 2 PEs tree depth buys nothing
// and the flat algorithm's bookkeeping is cheapest (when it implements
// the collective); small payloads stay on the paper's binomial tree;
// otherwise the argmin of PlanCostShape over the registered planners. The
// large-message scatter+all-gather broadcast stays an explicit opt-in
// — its advantage assumes bisection bandwidth the default fabric does
// not have.
func chooseAuto(coll Collective, nPEs, nelems, width int, sh Shape) Algorithm {
	if nPEs <= 2 {
		if pl, ok := LookupPlanner(AlgoLinear); ok && pl.Supports(coll) {
			return AlgoLinear
		}
	}
	small := 0
	if rootedColl(coll) {
		small = SmallMessageBytes
	} else if coll == CollAllReduce {
		small = TinyMessageBytes
	}
	if nelems*width <= small {
		if pl, ok := LookupPlanner(AlgoBinomial); ok && pl.Supports(coll) {
			return AlgoBinomial
		}
	}
	per := sh.PerNode
	if sh.flat(nPEs) {
		per = 0
	}
	sz := bits.Len(uint(nelems * width))
	key := autoKey{coll, nPEs, sz, per}
	gen := autoGen.Load()
	autoMu.Lock()
	if autoCacheGen != gen {
		autoCache = map[autoKey]Algorithm{}
		autoCacheGen = gen
	}
	if a, ok := autoCache[key]; ok {
		autoMu.Unlock()
		return a
	}
	autoMu.Unlock()
	best := cheapestPlanner(coll, nPEs, nelems, width, sh)
	autoMu.Lock()
	if autoCacheGen == gen {
		autoCache[key] = best
	}
	autoMu.Unlock()
	return best
}

// cheapestPlanner prices every registered planner that implements coll
// (each under its own segmentation choice) and returns the argmin; ties
// resolve to the alphabetically first name so decisions are stable.
// The topology-scoped planners (hierarchical, PAT) enter the candidate
// set only on a grouped shape: on flat fabrics they bring no structure
// the flat planners lack, and keeping them out preserves the flat
// decisions the 8-PE gates pin down.
func cheapestPlanner(coll Collective, nPEs, nelems, width int, sh Shape) Algorithm {
	tn := CurrentTuning()
	flat := sh.flat(nPEs)
	var best Algorithm
	var bestCost float64
	for _, name := range PlannerNames() {
		algo := Algorithm(name)
		if algo == AlgoScatterAllgather {
			continue
		}
		if flat && (algo == AlgoHier || algo == AlgoPAT) {
			continue
		}
		pl, ok := LookupPlanner(algo)
		if !ok || !pl.Supports(coll) {
			continue
		}
		seg := SelectSegments(coll, algo, nPEs, nelems, width)
		p, err := CompilePlanFor(coll, algo, nPEs, seg, sh)
		if err != nil || p == nil {
			continue
		}
		c := PlanCostShape(p, tn, sh, nelems, width)
		if best == "" || c < bestCost {
			best, bestCost = algo, c
		}
	}
	if best == "" {
		return AlgoBinomial
	}
	return best
}

// shapeOf projects a PE's fabric topology onto the planner Shape: the
// PEs-per-node grouping when the topology declares one, flat otherwise.
func shapeOf(pe *xbrtime.PE) Shape {
	return Shape{PerNode: pe.PEsPerNode()}
}

// Calibrate measures the tuning coefficients on the current build's
// default machine model: transfer alpha/beta on a 2-PE runtime
// (element-stream and chunked paths separately), local copy/combine
// costs on both data paths, the flag round-trip, and the per-PE
// barrier cost on a 4-PE runtime. It returns the table without
// installing it; callers decide whether to SetTuning/SaveTuning
// (xbgas-bench -tune does both).
func Calibrate() (Tuning, error) {
	t := Tuning{
		Version:      TuningVersion,
		Fabric:       "default",
		CalibratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	const (
		elems = 1 << 15 // 256 KiB of ulongs per sample
		reps  = 4
		msgs  = 2048 // single-element messages for the alpha sample
	)
	dt := xbrtime.TypeULong
	bytes := float64(elems * dt.Width)

	// best runs f reps times and returns the fastest wall time: the
	// minimum is the least-interference estimate of the primitive cost.
	best := func(f func()) float64 {
		bestNs := 0.0
		for i := 0; i < reps; i++ {
			start := time.Now()
			f()
			ns := float64(time.Since(start).Nanoseconds())
			if i == 0 || ns < bestNs {
				bestNs = ns
			}
		}
		return bestNs
	}

	rt, err := xbrtime.New(xbrtime.Config{NumPEs: 2})
	if err != nil {
		return t, err
	}
	var calErr error
	runErr := rt.Run(func(pe *xbrtime.PE) error {
		dest, err := pe.Malloc(elems * uint64(dt.Width))
		if err != nil {
			return err
		}
		src, err := pe.Malloc(elems * uint64(dt.Width))
		if err != nil {
			return err
		}
		flag, err := pe.Malloc(8)
		if err != nil {
			return err
		}
		if pe.MyPE() != 0 {
			// PE 1 is the passive one-sided target; it only has to
			// keep its symmetric heap alive until PE 0 finishes.
			return pe.Barrier()
		}
		// Per-message latency: single-element puts.
		alphaTotal := best(func() {
			for i := 0; i < msgs; i++ {
				if err := pe.Put(dt, dest, src, 1, 1, 1); err != nil {
					calErr = err
					return
				}
			}
		})
		t.AlphaNs = alphaTotal / msgs
		// Element-stream bandwidth: one large stride-1 put on the
		// historical element-at-a-time path.
		streamNs := best(func() {
			if err := pe.Put(dt, dest, src, elems, 1, 1); err != nil {
				calErr = err
			}
		})
		t.ElemNsPerByte = maxf(streamNs-t.AlphaNs, 0) / bytes
		// Chunked bandwidth: the line-granular bulk path.
		chunkNs := best(func() {
			if err := pe.PutChunk(dt, dest, src, elems, 1); err != nil {
				calErr = err
			}
		})
		t.BetaNsPerByte = maxf(chunkNs-t.AlphaNs, 0) / bytes
		// Local copies, both paths.
		t.CopyElemNsPerByte = best(func() {
			timedCopy(pe, dt, dest, src, elems, 1, 1)
		}) / bytes
		t.CopyNsPerByte = best(func() {
			pe.CopyChunk(dt, dest, src, elems)
		}) / bytes
		// Combines, both paths: the executor's fold loops verbatim.
		t.CombineElemNsPerByte = best(func() {
			for j := 0; j < elems; j++ {
				off := uint64(j * dt.Width)
				x := pe.ReadElem(dt, dest+off)
				y := pe.ReadElem(dt, src+off)
				v, err := Combine(dt, OpSum, x, y)
				if err != nil {
					calErr = err
					return
				}
				pe.WriteElem(dt, dest+off, v)
			}
		}) / bytes
		t.CombineNsPerByte = best(func() {
			xs := pe.BorrowWords(elems)
			ys := pe.BorrowWords(elems)
			pe.ReadElemsChunk(dt, dest, xs)
			pe.ReadElemsChunk(dt, src, ys)
			for j := range xs {
				v, err := Combine(dt, OpSum, xs[j], ys[j])
				if err != nil {
					calErr = err
					break
				}
				xs[j] = v
			}
			pe.WriteElemsChunk(dt, dest, xs)
			pe.ReturnWords(ys)
			pe.ReturnWords(xs)
		}) / bytes
		// Flag dependency edge: self signal + consume.
		flagTotal := best(func() {
			for i := 0; i < msgs; i++ {
				if err := pe.SignalAfter(xbrtime.Handle{}, flag, 0); err != nil {
					calErr = err
					return
				}
				if err := pe.WaitFlag(flag); err != nil {
					calErr = err
					return
				}
			}
		})
		t.FlagNs = flagTotal / msgs
		return pe.Barrier()
	})
	if runErr != nil {
		return t, runErr
	}
	if calErr != nil {
		return t, calErr
	}

	// Barrier cost on a 4-PE runtime, charged per PE: on the host every
	// PE's arrival is work, so the coefficient scales the model's
	// barrier term linearly with the PE count.
	const nBar, kBar = 4, 512
	rtb, err := xbrtime.New(xbrtime.Config{NumPEs: nBar})
	if err != nil {
		return t, err
	}
	var barNs atomic.Int64
	if err := rtb.Run(func(pe *xbrtime.PE) error {
		start := time.Now()
		for i := 0; i < kBar; i++ {
			if err := pe.Barrier(); err != nil {
				return err
			}
		}
		if pe.MyPE() == 0 {
			barNs.Store(time.Since(start).Nanoseconds())
		}
		return nil
	}); err != nil {
		return t, err
	}
	t.BarrierNs = float64(barNs.Load()) / float64(kBar*nBar)

	// Per-link-class coefficients, measured on the simulator's virtual
	// clock (cycles ≈ modelled ns): the same 2-PE transfer pattern is
	// timed with both PEs on one node and on two nodes of a grouped
	// fabric. These price what the modelled fabric charges a transfer,
	// not what the host pays to simulate it — the distinction the
	// host-time α/β above cannot make, since the host does identical
	// work either way.
	t.IntraAlphaNs, t.IntraBetaNsPerByte, err =
		classAlphaBeta(fabric.Grouped{PerNode: 2, N: 2})
	if err != nil {
		return t, err
	}
	t.InterAlphaNs, t.InterBetaNsPerByte, err =
		classAlphaBeta(fabric.Grouped{PerNode: 1, N: 2})
	if err != nil {
		return t, err
	}
	return t, nil
}

// classAlphaBeta times blocking puts between the two PEs of a 2-PE
// runtime on the given topology and reads the cost off PE 0's virtual
// clock: α from a train of single-element puts, β from one large
// chunked put with the α share subtracted.
func classAlphaBeta(topo fabric.Topology) (alpha, beta float64, err error) {
	const (
		elems = 1 << 15
		msgs  = 256
	)
	dt := xbrtime.TypeULong
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: 2, Topology: topo})
	if err != nil {
		return 0, 0, err
	}
	var calErr error
	runErr := rt.Run(func(pe *xbrtime.PE) error {
		dest, err := pe.Malloc(elems * uint64(dt.Width))
		if err != nil {
			return err
		}
		src, err := pe.Malloc(elems * uint64(dt.Width))
		if err != nil {
			return err
		}
		if pe.MyPE() != 0 {
			return pe.Barrier()
		}
		// Warm the source lines through the hierarchy first: the wire's
		// per-byte cost is what distinguishes the link classes, and a
		// cold first pass would hide it behind identical DRAM fills.
		if err := pe.PutChunk(dt, dest, src, elems, 1); err != nil {
			calErr = err
			return pe.Barrier()
		}
		start := pe.Now()
		for i := 0; i < msgs; i++ {
			if err := pe.Put(dt, dest, src, 1, 1, 1); err != nil {
				calErr = err
				return pe.Barrier()
			}
		}
		alpha = float64(pe.Now()-start) / msgs
		start = pe.Now()
		if err := pe.PutChunk(dt, dest, src, elems, 1); err != nil {
			calErr = err
			return pe.Barrier()
		}
		chunk := float64(pe.Now() - start)
		beta = maxf(chunk-alpha, 0) / float64(elems*dt.Width)
		return pe.Barrier()
	})
	if runErr != nil {
		return 0, 0, runErr
	}
	return alpha, beta, calErr
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
