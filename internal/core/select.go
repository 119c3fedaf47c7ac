package core

import (
	"fmt"
	"strings"
	"sync/atomic"

	"xbgas/internal/xbrtime"
)

// Algorithm names a collective implementation. Paper §4.1: "there is
// no universally optimal solution suited to every occasion ... most
// state-of-the-art solutions include a variety of algorithms which are
// dynamically chosen from at runtime based on the arguments of a
// specific call. It follows then, that the xBGAS collective library
// must follow a similar pattern." The selector is that hook: the
// binomial tree is the general-purpose choice; the linear algorithm
// wins only in the degenerate cases where tree depth buys nothing.
//
// The value is the planner's registry key (see RegisterPlanner); the
// zero value "" is equivalent to AlgoAuto so that zero-initialised
// specs pick automatically.
type Algorithm string

// Algorithms.
const (
	// AlgoAuto picks an implementation from the call's arguments.
	AlgoAuto Algorithm = "auto"
	// AlgoBinomial forces the binomial tree (Algorithms 1–4).
	AlgoBinomial Algorithm = "binomial"
	// AlgoLinear forces the flat root-centric baseline.
	AlgoLinear Algorithm = "linear"
	// AlgoScatterAllgather forces the large-message van de Geijn
	// broadcast (scatter + ring all-gather); broadcast only, stride 1.
	AlgoScatterAllgather Algorithm = "scatter-allgather"
	// AlgoDirect forces the direct pairwise exchange (alltoall only).
	AlgoDirect Algorithm = "direct"
	// AlgoRing forces the bandwidth-optimal ring family: chunk-cycling
	// reduce-scatter/allgather/allreduce and the pipelined chain
	// broadcast/reduce (planners_bw.go).
	AlgoRing Algorithm = "ring"
	// AlgoRabenseifner forces recursive-halving reduce-scatter plus
	// recursive-doubling allgather (and their composition for
	// allreduce); power-of-two PE counts, with a ring-shaped fallback
	// elsewhere.
	AlgoRabenseifner Algorithm = "rabenseifner"
	// AlgoHier forces the topology-aware two-level family
	// (planners_hier.go): intra-node and inter-node phases scheduled
	// separately against the fabric's node grouping, so bulk volume
	// crosses the narrow inter-node links once per node instead of once
	// per PE. On flat topologies it degenerates to a single-group
	// (ring-shaped) schedule.
	AlgoHier Algorithm = "hierarchical"
	// AlgoPAT forces the Bruck-style parallel-aggregated-tree planner
	// (planners_pat.go): log₂ n rounds of doubling block runs for
	// allgather and the time-reversed mirror for reduce-scatter, at any
	// PE count. Its log-depth schedule is the scale-out alternative to
	// the ring's n−1 rounds at 1k+ PEs.
	AlgoPAT Algorithm = "pat"
)

// LargeMessageBytes is the payload size past which scatter+all-gather
// overtakes the binomial tree on a full-bisection fabric (the
// message-size ablation locates the crossover near 4 KiB at 8 PEs).
// AlgoAuto stays on the tree regardless: on the default shared-switch
// fabric total traffic decides and the tree wins at every size, so the
// large-message algorithm is an explicit opt-in for deployments with
// bisection bandwidth.
const LargeMessageBytes = 16 << 10

// Message-segmentation parameters (see SelectSegments). The chunk-size
// ablation in docs/PERF.md locates the values: segmentation first pays
// for itself once the payload clearly exceeds one chunk (the flag
// round-trips cost ~a chunk of bandwidth), and 32 KiB chunks sit on the
// flat part of the sweep at 8 PEs.
const (
	// DefaultChunkBytes is the auto-selected segment size.
	DefaultChunkBytes = 32 << 10
	// SegmentMinBytes is the payload size below which auto selection
	// never segments: small messages are latency-bound and the paper's
	// whole-message rounds are already optimal.
	SegmentMinBytes = 64 << 10
	// MaxSegments caps the pipeline depth so tiny chunks never flood
	// the flag hub or the handle pools.
	MaxSegments = 32
)

// chunkOverride holds the -chunk override: 0 = auto, >0 = forced chunk
// bytes, <0 = segmentation disabled.
var chunkOverride atomic.Int64

// SetChunkBytes overrides the auto-selected segment size for every
// subsequent collective: b > 0 forces ⌈bytes/b⌉ segments on
// segmentable calls, b == 0 restores auto selection, and b < 0
// disables segmentation entirely (the unsegmented baseline arm of the
// chunk ablation). Cached auto decisions are invalidated: the override
// moves the cost of every segmented candidate.
func SetChunkBytes(b int) {
	chunkOverride.Store(int64(b))
	invalidateAuto()
}

// ChunkBytes returns the current -chunk override (0 = auto).
func ChunkBytes() int { return int(chunkOverride.Load()) }

// SelectSegments picks the message-segmentation factor for a
// collective: the number of near-equal chunks the payload is split
// into so segments pipeline through the tree (1 = unsegmented). The
// binomial tree's rooted data movers and the ring chain's
// broadcast/reduce segment; everything else — and any payload below
// SegmentMinBytes under auto selection — runs whole-message rounds.
func SelectSegments(coll Collective, algo Algorithm, nPEs, nelems, width int) int {
	if nPEs < 2 || nelems < 2 {
		return 1
	}
	switch algo {
	case AlgoBinomial:
		switch coll {
		case CollBroadcast, CollReduce, CollAllReduce, CollScatter:
		default:
			return 1
		}
	case AlgoRing:
		switch coll {
		case CollBroadcast, CollReduce:
		default:
			return 1
		}
	default:
		return 1
	}
	chunk := ChunkBytes()
	if chunk < 0 {
		return 1
	}
	bytes := nelems * width
	if chunk == 0 {
		if bytes < SegmentMinBytes {
			return 1
		}
		chunk = DefaultChunkBytes
	}
	s := (bytes + chunk - 1) / chunk
	if s > MaxSegments {
		s = MaxSegments
	}
	if s > nelems {
		s = nelems
	}
	if coll == CollScatter && s > 1 {
		// Scatter pipelines at subtree-block granularity whatever the
		// chunk size; one canonical segmented shape keeps the cache to
		// a single plan.
		s = 2
	}
	if s < 2 {
		return 1
	}
	return s
}

// String names the algorithm, rendering the zero value as "auto".
func (a Algorithm) String() string {
	if a == "" {
		return string(AlgoAuto)
	}
	return string(a)
}

// SelectFor resolves AlgoAuto for one collective over nPEs PEs moving
// nelems elements of width bytes each, against the fabric shape sh. A
// fixed algorithm passes through untouched. Auto is the calibrated cost
// model's argmin (chooseAuto): with ≤ 2 PEs the tree and the flat
// algorithm coincide so the cheaper-bookkeeping linear form is used;
// small payloads stay on the binomial tree — tree-based algorithms
// "typically produce the highest performance for smaller data
// transaction sizes" (§4.2) — and large payloads land on the
// bandwidth-optimal ring/rabenseifner planners past the tuned
// crossover. On a grouped topology the shape admits the hierarchical
// candidates and prices every plan with the per-link-class
// coefficients, so auto resolves differently intra- vs inter-node.
func (a Algorithm) SelectFor(coll Collective, nPEs, nelems, width int, sh Shape) Algorithm {
	if a != AlgoAuto && a != "" {
		return a
	}
	return chooseAuto(coll, nPEs, nelems, width, sh)
}

// resolveAlgorithm normalises an algorithm request for one collective:
// auto-selection first, then a registry lookup (unknown names are an
// error listing what is registered), then a fall-back when the chosen
// planner does not cover this collective — to the binomial tree when
// it applies (the pre-registry dispatch switches defaulted the same
// way), otherwise to the cost model's pick (reduce-scatter has no
// binomial form).
func resolveAlgorithm(algo Algorithm, coll Collective, nPEs, nelems, width int, sh Shape) (Algorithm, error) {
	selected := algo.SelectFor(coll, nPEs, nelems, width, sh)
	pl, ok := LookupPlanner(selected)
	if !ok {
		return "", fmt.Errorf("core: unknown algorithm %q (registered: %s)",
			selected, strings.Join(PlannerNames(), ", "))
	}
	if !pl.Supports(coll) {
		if bin, ok := LookupPlanner(AlgoBinomial); ok && bin.Supports(coll) {
			return AlgoBinomial, nil
		}
		return chooseAuto(coll, nPEs, nelems, width, sh), nil
	}
	return selected, nil
}

// dispatch is the one body behind every world collective entry point.
// It validates the call's arguments before anything else — a rejected
// call must not price plans or touch the auto decision cache — then
// resolves the algorithm and runs its plan. The large-message
// scatter+all-gather broadcast is contiguous by construction and needs
// a chunk per PE, so strided or degenerate calls stay on the tree.
func dispatch(pe *xbrtime.PE, coll Collective, algo Algorithm, a ExecArgs) error {
	switch coll {
	case CollScatter, CollGather, CollAllGather:
		if err := validateVector(pe, a.DT, a.PeMsgs, a.PeDisp, a.Nelems, a.Root); err != nil {
			return err
		}
	default:
		if err := validate(pe, a.DT, a.Nelems, a.Stride, a.Root); err != nil {
			return err
		}
		if coll != CollBroadcast {
			if _, err := Combine(a.DT, a.Op, 0, 0); err != nil {
				return err // operator/type mismatch
			}
		}
	}
	n, sh := pe.NumPEs(), shapeOf(pe)
	selected, err := resolveAlgorithm(algo, coll, n, a.Nelems, a.DT.Width, sh)
	if err != nil {
		return err
	}
	if selected == AlgoScatterAllgather && (a.Stride != 1 || n == 1 || a.Nelems < n) {
		selected = AlgoBinomial
	}
	return runPlan(pe, coll, selected, sh, a)
}

// BroadcastWith dispatches a broadcast through the selector and the
// planner registry. The large-message algorithm applies only to
// contiguous (stride 1) broadcasts; strided calls stay on the tree.
func BroadcastWith(algo Algorithm, pe *xbrtime.PE, dt xbrtime.DType, dest, src uint64, nelems, stride, root int) error {
	return dispatch(pe, CollBroadcast, algo, ExecArgs{
		DT: dt, Dest: dest, Src: src,
		Nelems: nelems, Stride: stride, Root: root,
	})
}

// ReduceWith dispatches a reduction through the selector and the
// planner registry.
func ReduceWith(algo Algorithm, pe *xbrtime.PE, dt xbrtime.DType, op ReduceOp, dest, src uint64, nelems, stride, root int) error {
	return dispatch(pe, CollReduce, algo, ExecArgs{
		DT: dt, Op: op, Dest: dest, Src: src,
		Nelems: nelems, Stride: stride, Root: root,
	})
}

// ScatterWith dispatches a scatter through the selector and the
// planner registry.
func ScatterWith(algo Algorithm, pe *xbrtime.PE, dt xbrtime.DType, dest, src uint64, peMsgs, peDisp []int, nelems, root int) error {
	return dispatch(pe, CollScatter, algo, ExecArgs{
		DT: dt, Dest: dest, Src: src,
		Nelems: nelems, Stride: 1, Root: root,
		PeMsgs: peMsgs, PeDisp: peDisp,
	})
}

// AllReduceWith dispatches a reduction-to-all through the selector and
// the planner registry: auto resolves against the calibrated cost
// model, so large payloads land on the bandwidth-optimal rabenseifner
// or ring planner and small ones stay on the binomial tree.
func AllReduceWith(pe *xbrtime.PE, algo Algorithm, dt xbrtime.DType, op ReduceOp, dest, src uint64, nelems, stride int) error {
	return dispatch(pe, CollAllReduce, algo, ExecArgs{
		DT: dt, Op: op, Dest: dest, Src: src,
		Nelems: nelems, Stride: stride,
	})
}

// AllGatherWith dispatches a gather-to-all through the selector and the
// planner registry.
func AllGatherWith(pe *xbrtime.PE, algo Algorithm, dt xbrtime.DType, dest, src uint64, peMsgs, peDisp []int, nelems int) error {
	return dispatch(pe, CollAllGather, algo, ExecArgs{
		DT: dt, Dest: dest, Src: src,
		Nelems: nelems, Stride: 1,
		PeMsgs: peMsgs, PeDisp: peDisp,
	})
}

// ReduceScatterWith dispatches a reduce-scatter through the selector
// and the planner registry: every PE contributes nelems elements at
// src and receives its own fully-reduced chunk (the closed-form
// equal chunking of nelems over the PEs, chunk v sized
// ⌊nelems/n⌋ + (v < nelems mod n)) at dest. The collective is
// rootless; only the bandwidth-optimal planners implement it.
func ReduceScatterWith(pe *xbrtime.PE, algo Algorithm, dt xbrtime.DType, op ReduceOp, dest, src uint64, nelems int) error {
	return dispatch(pe, CollReduceScatter, algo, ExecArgs{
		DT: dt, Op: op, Dest: dest, Src: src,
		Nelems: nelems, Stride: 1,
	})
}

// GatherWith dispatches a gather through the selector and the planner
// registry.
func GatherWith(algo Algorithm, pe *xbrtime.PE, dt xbrtime.DType, dest, src uint64, peMsgs, peDisp []int, nelems, root int) error {
	return dispatch(pe, CollGather, algo, ExecArgs{
		DT: dt, Dest: dest, Src: src,
		Nelems: nelems, Stride: 1, Root: root,
		PeMsgs: peMsgs, PeDisp: peDisp,
	})
}
