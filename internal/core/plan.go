package core

import (
	"fmt"
	"sort"
	"sync"
)

// This file defines the communication-plan IR. A Plan describes one
// collective algorithm for a fixed PE count as data: a sequence of
// rounds, each a list of typed steps in *virtual-rank* space (the root
// is always virtual rank 0, Table 2's remapping). Because every
// root-dependent quantity — logical ranks, buffer addresses, element
// counts, strides — is expressed symbolically and resolved by the
// executor at call time, one cached plan serves every root, element
// count, stride, and team of the same PE count. Planners (planners.go)
// compile plans; the executor (exec.go) runs them; schedule.go's
// analytic schedules are projections of the same plans, so the
// executed pattern and the documented pattern cannot drift.

// Collective identifies the operation a plan implements.
type Collective uint8

// Collectives.
const (
	CollBroadcast Collective = iota
	CollReduce
	CollScatter
	CollGather
	CollAllReduce
	CollAllGather
	CollAlltoall
	CollReduceScatter
)

// String names the collective.
func (c Collective) String() string {
	switch c {
	case CollBroadcast:
		return "broadcast"
	case CollReduce:
		return "reduce"
	case CollScatter:
		return "scatter"
	case CollGather:
		return "gather"
	case CollAllReduce:
		return "allreduce"
	case CollAllGather:
		return "allgather"
	case CollAlltoall:
		return "alltoall"
	case CollReduceScatter:
		return "reduce_scatter"
	}
	return "unknown"
}

// Collectives lists every collective, for registry and availability
// listings (-algo list).
func Collectives() []Collective {
	return []Collective{
		CollBroadcast, CollReduce, CollScatter, CollGather,
		CollAllReduce, CollAllGather, CollAlltoall, CollReduceScatter,
	}
}

// StepKind is the operation a step performs.
type StepKind uint8

// Step kinds.
const (
	// StepPut moves Count elements from the actor's Src to Dst on Peer.
	StepPut StepKind = iota
	// StepGet pulls Count elements from Src on Peer into the actor's Dst.
	StepGet
	// StepCombine folds Src into Dst element-wise with the call's
	// reduction operator, charging the per-element combine cost.
	StepCombine
	// StepCopy moves Count elements locally through the timed
	// memory hierarchy.
	StepCopy
	// StepBarrier synchronises; with Actor == ActorAll it closes a
	// round for every PE.
	StepBarrier
	// StepSignal stores a completion flag (word Flag of the plan's flag
	// block) on Peer, ordered after the actor's latest non-blocking
	// transfer of the round. Segmented plans use signal/wait pairs as
	// point-to-point dependencies instead of per-round world barriers.
	StepSignal
	// StepWaitFlag blocks the actor until its own flag word Flag has
	// been signalled, consuming the post.
	StepWaitFlag
)

// String names the step kind.
func (k StepKind) String() string {
	switch k {
	case StepPut:
		return "put"
	case StepGet:
		return "get"
	case StepCombine:
		return "combine"
	case StepCopy:
		return "copy"
	case StepBarrier:
		return "barrier"
	case StepSignal:
		return "signal"
	case StepWaitFlag:
		return "waitflag"
	}
	return "unknown"
}

// ActorAll marks a step executed by every virtual rank (barriers).
const ActorAll = -1

// BufRef names one of the executor's four address spaces.
type BufRef uint8

// Buffer references.
const (
	// BufDest is the call's dest argument.
	BufDest BufRef = iota
	// BufSrc is the call's src argument.
	BufSrc
	// BufStage is the symmetric staging buffer the executor allocates
	// (or the caller-provided workspace, for team reductions).
	BufStage
	// BufScratch is the PE-private scratch landing buffer.
	BufScratch
)

// OffRef is a symbolic element offset into a buffer, resolved at
// execution time from the call's arguments.
type OffRef uint8

// Offset references.
const (
	// OffZero is the buffer base.
	OffZero OffRef = iota
	// OffAdj is the adjusted displacement of virtual rank V: the
	// element offset of V's block in a virtual-rank-ordered buffer
	// (Algorithms 3/4's adj_disp, or the closed-form chunk offset in
	// AdjChunks mode).
	OffAdj
	// OffDisp is the caller displacement pe_disp[LogicalRank(V)].
	OffDisp
	// OffBlock is V×nelems: fixed-size block V of an alltoall buffer.
	OffBlock
	// OffSeg is the element offset of segment V under the plan's
	// segmentation of nelems (segment k starts at k·⌊nelems/S⌋ +
	// min(k, nelems mod S)); scaled by the call's stride on strided
	// sides.
	OffSeg
)

// CountRef is a symbolic element count resolved at execution time.
type CountRef uint8

// Count references.
const (
	// CountAll is the call's nelems.
	CountAll CountRef = iota
	// CountBlock is virtual rank CV's own block: pe_msgs[LogicalRank(CV)],
	// or the chunk size in AdjChunks mode.
	CountBlock
	// CountSubtree is the aggregate block of the subtree rooted at
	// virtual rank CV with height CB: virtual ranks [CV, CV+2^CB)
	// clipped to the PE count.
	CountSubtree
	// CountSeg is the length of segment CV under the plan's
	// segmentation of nelems: ⌊nelems/S⌋ plus one for the first
	// nelems mod S segments.
	CountSeg
	// CountRun is the aggregate of the CB consecutive blocks starting
	// at virtual rank CV, clipped to the PE count: adj(min(CV+CB, n)) −
	// adj(CV). The hierarchical and PAT planners move runs of blocks in
	// one transfer; pair it with an OffAdj offset at the same CV.
	CountRun
)

// Loc is a symbolic address: a buffer plus an offset reference. V is
// the virtual-rank operand of OffAdj/OffDisp/OffBlock.
type Loc struct {
	Buf BufRef
	Off OffRef
	V   int
}

// Step is one operation of a round, bound to the virtual rank that
// executes it.
type Step struct {
	Kind StepKind
	// Actor is the virtual rank executing the step; ActorAll for
	// round-closing barriers.
	Actor int
	// Peer is the transfer partner in virtual ranks: the put target or
	// the get's passive data owner. -1 for local steps.
	Peer int

	Dst, Src Loc

	Count  CountRef
	CV, CB int // operands of CountBlock/CountSubtree/CountSeg

	// Flag is the flag-word index of a StepSignal/StepWaitFlag within
	// the plan's flag block (see Plan.FlagWords).
	Flag int

	// Strided applies the call's element stride to a put/get (both
	// sides); DstStrided/SrcStrided apply it per side of a copy or
	// combine. Unset sides are contiguous.
	Strided                bool
	DstStrided, SrcStrided bool

	// SkipIfZero drops the step when its count resolves to 0
	// (Algorithms 3/4 skip empty subtree blocks).
	SkipIfZero bool
	// SkipIfAlias drops a copy whose source and destination resolve to
	// the same address (the broadcast root staging copy when
	// dest == src).
	SkipIfAlias bool

	// Blocks > 1 repeats the step for the block ids CV, CV+BStride, …,
	// CV+(Blocks−1)·BStride: each repetition advances the block-indexed
	// operands (OffAdj/OffDisp/OffBlock V, CountBlock/CountRun CV) by
	// BStride. One symbolic step thus expresses an n-block
	// redistribution — the allgather epilogues and the hierarchical
	// rail exchanges — without O(n) step records per actor.
	Blocks, BStride int
}

// Round is one synchronisation epoch of a plan. Steps are sorted by
// actor (finalize enforces this) so the executor slices its own steps
// in O(1); round-closing ActorAll barriers trail the list.
type Round struct {
	// Name is the obs round-span name ("broadcast.round", ...); ""
	// emits no span (staging prologues and epilogues).
	Name string
	// Idx is the algorithm's round index, carried in the span and in
	// Transfers; -1 for unnamed rounds.
	Idx int
	// NB issues the round's transfers non-blocking; the executor waits
	// on every issued handle before the round's barrier.
	NB bool

	Steps []Step

	actorStart []int // per-virtual-rank bounds into Steps; len NPEs+1
	tail       int   // index where the trailing ActorAll steps begin
}

// BufSpec sizes a plan-managed buffer from the call's arguments.
type BufSpec uint8

// Buffer specs.
const (
	// BufNone: the plan does not use this buffer.
	BufNone BufSpec = iota
	// BufSpan: the strided span of nelems elements.
	BufSpan
	// BufTotal: nelems contiguous elements (at least one).
	BufTotal
	// BufMaxBlock: the largest pe_msgs block (at least one element).
	BufMaxBlock
)

// AdjMode selects how OffAdj/CountBlock/CountSubtree resolve.
type AdjMode uint8

// Adjustment modes.
const (
	// AdjNone: the plan uses no adjusted displacements.
	AdjNone AdjMode = iota
	// AdjVector: adj_disp computed from the call's pe_msgs (Algorithms
	// 3/4).
	AdjVector
	// AdjChunks: closed-form equal chunking of nelems over the PEs
	// (the scatter+ring-allgather broadcast); no pe_msgs needed.
	AdjChunks
)

// Plan is one compiled collective algorithm for a fixed PE count.
type Plan struct {
	Collective Collective
	Algorithm  Algorithm
	// Span is the obs collective-span name runPlan opens ("broadcast",
	// "broadcast_linear", ...).
	Span string
	NPEs int

	Rounds []Round

	// Stage and Scratch size the executor-managed buffers; Adj selects
	// the displacement model.
	Stage, Scratch BufSpec
	Adj            AdjMode
	// UsesOp marks plans with combine steps so the executor
	// precomputes the operator cost.
	UsesOp bool

	// Segments is the message-segmentation factor: nelems is split into
	// this many near-equal chunks that flow through the tree pipelined
	// (0 or 1 = unsegmented). FlagWords is the size, in 8-byte words, of
	// the symmetric flag block the executor allocates for the plan's
	// signal/wait dependencies (0 = none). Depth is the compile-time
	// critical-path length in communication steps — ⌈log₂ n⌉+S−1 for a
	// pipelined binomial tree versus ⌈log₂ n⌉ whole-message rounds
	// unsegmented (0 = unset; see PipelineDepth).
	Segments  int
	FlagWords int
	Depth     int

	// Chunked opts the plan's stride-1 data movement into the bulk
	// paths: line-granular chunk transfers (see xbrtime/chunk.go) for
	// blocking puts/gets, and bulk timed copies/combines instead of the
	// element-at-a-time accessors. The bandwidth-optimal planners set
	// it — their whole point is moving large contiguous chunks — while
	// the paper's element-at-a-time plans keep the historical model.
	Chunked bool

	label string // Collective/Algorithm, reported through NotePlanner
}

// Label returns the plan's identity string —
// "collective/algorithm[seg=N]" — the key NotePlanner tallies under
// and the "plan" arg trace analyzers map spans back to plans with.
func (p *Plan) Label() string { return p.label }

// PipelineDepth is the plan's critical-path length in communication
// steps: the planner-recorded Depth when set, otherwise the number of
// named (tree) rounds.
func (p *Plan) PipelineDepth() int {
	if p.Depth > 0 {
		return p.Depth
	}
	d := 0
	for ri := range p.Rounds {
		if p.Rounds[ri].Name != "" {
			d++
		}
	}
	return d
}

// finalize sorts each round's steps into executor order (actor
// ascending, ActorAll barriers last) and builds the per-actor index.
// Planners already emit actor-sorted steps; the stable sort makes the
// invariant structural rather than conventional.
func (p *Plan) finalize() {
	for ri := range p.Rounds {
		r := &p.Rounds[ri]
		sort.SliceStable(r.Steps, func(i, j int) bool {
			ai, aj := r.Steps[i].Actor, r.Steps[j].Actor
			if ai == ActorAll {
				ai = int(^uint(0) >> 1)
			}
			if aj == ActorAll {
				aj = int(^uint(0) >> 1)
			}
			return ai < aj
		})
		r.tail = len(r.Steps)
		for r.tail > 0 && r.Steps[r.tail-1].Actor == ActorAll {
			r.tail--
		}
		r.actorStart = make([]int, p.NPEs+1)
		s := 0
		for v := 0; v <= p.NPEs; v++ {
			for s < r.tail && r.Steps[s].Actor < v {
				s++
			}
			r.actorStart[v] = s
		}
	}
}

// Transfers projects the plan's remote moves in virtual-rank space:
// for a put the actor is the mover (From), for a get the actor pulls
// from its peer. This is the single source of truth behind
// BroadcastSchedule/ReduceSchedule and the differential
// schedule-vs-execution test.
func (p *Plan) Transfers() []Transfer {
	var out []Transfer
	for ri := range p.Rounds {
		r := &p.Rounds[ri]
		for si := range r.Steps {
			s := &r.Steps[si]
			reps := 1
			if s.Blocks > 1 {
				reps = s.Blocks
			}
			for k := 0; k < reps; k++ {
				switch s.Kind {
				case StepPut:
					out = append(out, Transfer{Round: r.Idx, Kind: StepPut, From: s.Actor, To: s.Peer})
				case StepGet:
					out = append(out, Transfer{Round: r.Idx, Kind: StepGet, From: s.Peer, To: s.Actor})
				}
			}
		}
	}
	return out
}

// planKey is the cache shape: everything else (root, nelems, stride,
// counts, team) is resolved at execution time. per is the fabric
// shape's PEs-per-node, 0 for flat shapes; the entry of a planner that
// is not Shaped aliases its flat plan.
type planKey struct {
	coll Collective
	algo Algorithm
	n    int
	seg  int
	per  int
}

var (
	planMu    sync.RWMutex
	planCache = map[planKey]*Plan{}
)

// Shape carries the fabric grouping a shape-aware planner compiles
// against: PerNode is the nominal PEs per physical node of the
// topology (fabric.NodeGrouper), with the last node possibly partial.
// The zero Shape — and PerNode 1, and a single node holding every PE —
// mean flat.
type Shape struct {
	PerNode int
}

// flat reports whether the shape carries no usable grouping for an
// n-PE plan.
func (sh Shape) flat(n int) bool {
	return sh.PerNode <= 1 || sh.PerNode >= n
}

// CompilePlanFor returns the plan for (collective, algorithm, nPEs)
// split into the given number of message segments and compiled against
// the fabric shape, compiling and caching it on first use. Repeated
// calls with the same key return the same *Plan; the cache uses a
// plain mutex-guarded map so hits stay allocation-free. Only a Shaped
// planner compiles per grouping; every other planner — and every flat
// shape — shares the flat plan.
//
// segments > 1 asks the planner for a pipelined per-segment plan. A
// planner with no segmented form for the collective gets the
// unsegmented plan, cached under the requested key too, so repeated
// misses stay cheap and pointer-stable. algo must name a registered
// planner (AlgoAuto is resolved by the dispatcher, not here).
func CompilePlanFor(coll Collective, algo Algorithm, nPEs, segments int, sh Shape) (*Plan, error) {
	if nPEs < 1 {
		return nil, fmt.Errorf("core: plan for %d PEs; need at least 1", nPEs)
	}
	if segments < 1 {
		segments = 1
	}
	if sh.flat(nPEs) {
		sh = Shape{}
	}
	key := planKey{coll, algo, nPEs, segments, sh.PerNode}
	planMu.RLock()
	p := planCache[key]
	planMu.RUnlock()
	if p != nil {
		return p, nil
	}
	pl, ok := LookupPlanner(algo)
	if !ok {
		return nil, fmt.Errorf("core: unknown algorithm %q (registered: %v)", algo, PlannerNames())
	}
	var err error
	if sh.PerNode != 0 && !pl.Shaped {
		// The grouping does not change this planner's plans: alias the
		// flat plan under this key.
		p, err = CompilePlanFor(coll, algo, nPEs, segments, Shape{})
	} else if p = pl.Compile(coll, nPEs, segments, sh); p != nil {
		p.label = coll.String() + "/" + string(algo)
		if p.Segments > 1 {
			p.label += fmt.Sprintf("[seg=%d]", p.Segments)
		} else if p.FlagWords > 0 {
			p.label += "[pipelined]"
		}
		p.finalize()
	} else if segments > 1 {
		// No segmented form: alias the unsegmented plan under this key.
		p, err = CompilePlanFor(coll, algo, nPEs, 1, sh)
	} else {
		err = fmt.Errorf("core: algorithm %q does not implement %s", algo, coll)
	}
	if err != nil {
		return nil, err
	}
	planMu.Lock()
	if prev := planCache[key]; prev != nil {
		p = prev // lost a compile race; keep the first plan canonical
	} else {
		planCache[key] = p
	}
	planMu.Unlock()
	return p, nil
}
