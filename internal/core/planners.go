package core

// The planners: each compiles one algorithm family into the plan IR.
// The binomial tree shapes live in putTreeEdges/getTreeEdges — the
// ONLY place in the package that performs Algorithm 1–4's mask
// arithmetic; every collective, analytic schedule, and rendered figure
// derives from these two generators.

// treeEdge is one parent→child link of the binomial tree: from
// survives the round, to is its partner, bit the round's tree bit
// (the partner subtree spans virtual ranks [to, to+2^bit)).
type treeEdge struct {
	from, to, bit int
}

// putTreeEdges returns, round by round, the edges of Algorithm 1's
// recursive-halving put tree: the loop index runs from ⌈log₂ n⌉−1
// down to 0 so the mask isolates virtual-rank bits left to right,
// spreading the first hops across the widest distance.
func putTreeEdges(n int) [][]treeEdge {
	rounds := CeilLog2(n)
	out := make([][]treeEdge, rounds)
	mask := (1 << rounds) - 1
	for i := rounds - 1; i >= 0; i-- {
		mask ^= 1 << i
		var edges []treeEdge
		for v := 0; v < n; v++ {
			if v&mask == 0 && v&(1<<i) == 0 {
				if vp := (v ^ (1 << i)) % n; v < vp {
					edges = append(edges, treeEdge{from: v, to: vp, bit: i})
				}
			}
		}
		out[rounds-1-i] = edges
	}
	return out
}

// getTreeEdges returns the rounds of Algorithm 2's recursive-doubling
// get tree — the broadcast tree read leaves→root: the loop index runs
// upward so the mask isolates virtual-rank bits right to left. In each
// edge, from issues the get and to is the passive data owner.
func getTreeEdges(n int) [][]treeEdge {
	rounds := CeilLog2(n)
	out := make([][]treeEdge, rounds)
	mask := (1 << rounds) - 1
	for i := 0; i < rounds; i++ {
		mask ^= 1 << i
		var edges []treeEdge
		for v := 0; v < n; v++ {
			if v|mask == mask && v&(1<<i) == 0 {
				if vp := (v ^ (1 << i)) % n; v < vp {
					edges = append(edges, treeEdge{from: v, to: vp, bit: i})
				}
			}
		}
		out[i] = edges
	}
	return out
}

func barrierStep() Step {
	return Step{Kind: StepBarrier, Actor: ActorAll, Peer: -1}
}

// stageAll emits one strided copy per virtual rank loading the
// symmetric staging buffer with the PE's contribution.
func stageAll(n int) []Step {
	steps := make([]Step, 0, n+1)
	for v := 0; v < n; v++ {
		steps = append(steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst: Loc{Buf: BufStage}, Src: Loc{Buf: BufSrc},
			Count: CountAll, DstStrided: true, SrcStrided: true,
		})
	}
	return steps
}

func compileBinomial(coll Collective, n, segments int, _ Shape) *Plan {
	if segments > 1 {
		return compileBinomialSeg(coll, n, segments)
	}
	switch coll {
	case CollBroadcast:
		return binomialBroadcastPlan(n)
	case CollReduce:
		return binomialReducePlan(n)
	case CollScatter:
		return binomialScatterPlan(n)
	case CollGather:
		return binomialGatherPlan(n)
	case CollAllReduce:
		return binomialAllReducePlan(n)
	case CollAllGather:
		return binomialAllGatherPlan(n)
	}
	return nil
}

// binomialBroadcastPlan is Algorithm 1: the root stages src at its own
// dest (so the postcondition holds on the root and every sender
// forwards from the same symmetric address), then each round's
// senders put their whole payload down the tree.
func binomialBroadcastPlan(n int) *Plan {
	p := &Plan{Collective: CollBroadcast, Algorithm: AlgoBinomial, Span: "broadcast", NPEs: n}
	p.Rounds = append(p.Rounds, Round{Idx: -1, Steps: []Step{{
		Kind: StepCopy, Actor: 0, Peer: -1,
		Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufSrc},
		Count: CountAll, DstStrided: true, SrcStrided: true,
		SkipIfAlias: true,
	}}})
	for idx, edges := range putTreeEdges(n) {
		r := Round{Name: "broadcast.round", Idx: idx}
		for _, e := range edges {
			r.Steps = append(r.Steps, Step{
				Kind: StepPut, Actor: e.from, Peer: e.to,
				Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufDest},
				Count: CountAll, Strided: true,
			})
		}
		r.Steps = append(r.Steps, barrierStep())
		p.Rounds = append(p.Rounds, r)
	}
	return p
}

// binomialReducePlan is Algorithm 2: every PE stages its contribution
// in the symmetric s_buff, survivors get their partner's partial into
// the private l_buff and combine it in, and the root migrates the
// result to dest. Both buffers exist to "prevent any unintended
// overwriting of values on any PE".
func binomialReducePlan(n int) *Plan {
	p := &Plan{
		Collective: CollReduce, Algorithm: AlgoBinomial, Span: "reduce", NPEs: n,
		Stage: BufSpan, Scratch: BufSpan, UsesOp: true,
	}
	pro := Round{Idx: -1, Steps: stageAll(n)}
	pro.Steps = append(pro.Steps, barrierStep())
	p.Rounds = append(p.Rounds, pro)
	for idx, edges := range getTreeEdges(n) {
		r := Round{Name: "reduce.round", Idx: idx}
		for _, e := range edges {
			r.Steps = append(r.Steps,
				Step{
					Kind: StepGet, Actor: e.from, Peer: e.to,
					Dst: Loc{Buf: BufScratch}, Src: Loc{Buf: BufStage},
					Count: CountAll, Strided: true,
				},
				Step{
					Kind: StepCombine, Actor: e.from, Peer: -1,
					Dst: Loc{Buf: BufStage}, Src: Loc{Buf: BufScratch},
					Count: CountAll, DstStrided: true, SrcStrided: true,
				})
		}
		r.Steps = append(r.Steps, barrierStep())
		p.Rounds = append(p.Rounds, r)
	}
	p.Rounds = append(p.Rounds, Round{Idx: -1, Steps: []Step{{
		Kind: StepCopy, Actor: 0, Peer: -1,
		Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufStage},
		Count: CountAll, DstStrided: true, SrcStrided: true,
	}}})
	return p
}

// binomialScatterPlan is Algorithm 3: the root reorders src
// (logical-rank order at the caller's displacements) into the staging
// buffer in virtual-rank order, which "guarantees that the data for
// each tree node and its children is contiguous and ensures that a
// single put is sufficient at each stage"; every round forwards one
// contiguous subtree block, and each PE finally relocates its own
// block to dest.
func binomialScatterPlan(n int) *Plan {
	p := &Plan{
		Collective: CollScatter, Algorithm: AlgoBinomial, Span: "scatter", NPEs: n,
		Stage: BufTotal, Adj: AdjVector,
	}
	pro := Round{Idx: -1}
	for v := 0; v < n; v++ {
		pro.Steps = append(pro.Steps, Step{
			Kind: StepCopy, Actor: 0, Peer: -1,
			Dst:   Loc{Buf: BufStage, Off: OffAdj, V: v},
			Src:   Loc{Buf: BufSrc, Off: OffDisp, V: v},
			Count: CountBlock, CV: v,
		})
	}
	pro.Steps = append(pro.Steps, barrierStep())
	p.Rounds = append(p.Rounds, pro)
	for idx, edges := range putTreeEdges(n) {
		r := Round{Name: "scatter.round", Idx: idx}
		for _, e := range edges {
			r.Steps = append(r.Steps, Step{
				Kind: StepPut, Actor: e.from, Peer: e.to,
				Dst:   Loc{Buf: BufStage, Off: OffAdj, V: e.to},
				Src:   Loc{Buf: BufStage, Off: OffAdj, V: e.to},
				Count: CountSubtree, CV: e.to, CB: e.bit, SkipIfZero: true,
			})
		}
		r.Steps = append(r.Steps, barrierStep())
		p.Rounds = append(p.Rounds, r)
	}
	epi := Round{Idx: -1}
	for v := 0; v < n; v++ {
		epi.Steps = append(epi.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst:   Loc{Buf: BufDest},
			Src:   Loc{Buf: BufStage, Off: OffAdj, V: v},
			Count: CountBlock, CV: v,
		})
	}
	p.Rounds = append(p.Rounds, epi)
	return p
}

// binomialGatherPlan is Algorithm 4 — Algorithm 3 read leaves→root
// with get: each PE stages its block at its adjusted offset,
// survivors pull their partner's aggregated subtree block, and the
// root reorders the virtual-rank-ordered staging buffer into dest.
func binomialGatherPlan(n int) *Plan {
	p := &Plan{
		Collective: CollGather, Algorithm: AlgoBinomial, Span: "gather", NPEs: n,
		Stage: BufTotal, Adj: AdjVector,
	}
	pro := Round{Idx: -1}
	for v := 0; v < n; v++ {
		pro.Steps = append(pro.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst:   Loc{Buf: BufStage, Off: OffAdj, V: v},
			Src:   Loc{Buf: BufSrc},
			Count: CountBlock, CV: v,
		})
	}
	pro.Steps = append(pro.Steps, barrierStep())
	p.Rounds = append(p.Rounds, pro)
	for idx, edges := range getTreeEdges(n) {
		r := Round{Name: "gather.round", Idx: idx}
		for _, e := range edges {
			r.Steps = append(r.Steps, Step{
				Kind: StepGet, Actor: e.from, Peer: e.to,
				Dst:   Loc{Buf: BufStage, Off: OffAdj, V: e.to},
				Src:   Loc{Buf: BufStage, Off: OffAdj, V: e.to},
				Count: CountSubtree, CV: e.to, CB: e.bit, SkipIfZero: true,
			})
		}
		r.Steps = append(r.Steps, barrierStep())
		p.Rounds = append(p.Rounds, r)
	}
	epi := Round{Idx: -1}
	for v := 0; v < n; v++ {
		epi.Steps = append(epi.Steps, Step{
			Kind: StepCopy, Actor: 0, Peer: -1,
			Dst:   Loc{Buf: BufDest, Off: OffDisp, V: v},
			Src:   Loc{Buf: BufStage, Off: OffAdj, V: v},
			Count: CountBlock, CV: v,
		})
	}
	p.Rounds = append(p.Rounds, epi)
	return p
}

// binomialAllReducePlan composes reduce and broadcast over one shared
// staging buffer: get-tree rounds fold partials toward virtual rank 0,
// put-tree rounds push the result back down, and every PE copies the
// staged result to dest — one allocation and no dest round-trip,
// unlike the historical Reduce-then-Broadcast composition.
func binomialAllReducePlan(n int) *Plan {
	p := &Plan{
		Collective: CollAllReduce, Algorithm: AlgoBinomial, Span: "allreduce", NPEs: n,
		Stage: BufSpan, Scratch: BufSpan, UsesOp: true,
	}
	pro := Round{Idx: -1, Steps: stageAll(n)}
	pro.Steps = append(pro.Steps, barrierStep())
	p.Rounds = append(p.Rounds, pro)
	idx := 0
	for _, edges := range getTreeEdges(n) {
		r := Round{Name: "allreduce.round", Idx: idx}
		idx++
		for _, e := range edges {
			r.Steps = append(r.Steps,
				Step{
					Kind: StepGet, Actor: e.from, Peer: e.to,
					Dst: Loc{Buf: BufScratch}, Src: Loc{Buf: BufStage},
					Count: CountAll, Strided: true,
				},
				Step{
					Kind: StepCombine, Actor: e.from, Peer: -1,
					Dst: Loc{Buf: BufStage}, Src: Loc{Buf: BufScratch},
					Count: CountAll, DstStrided: true, SrcStrided: true,
				})
		}
		r.Steps = append(r.Steps, barrierStep())
		p.Rounds = append(p.Rounds, r)
	}
	for _, edges := range putTreeEdges(n) {
		r := Round{Name: "allreduce.round", Idx: idx}
		idx++
		for _, e := range edges {
			r.Steps = append(r.Steps, Step{
				Kind: StepPut, Actor: e.from, Peer: e.to,
				Dst: Loc{Buf: BufStage}, Src: Loc{Buf: BufStage},
				Count: CountAll, Strided: true,
			})
		}
		r.Steps = append(r.Steps, barrierStep())
		p.Rounds = append(p.Rounds, r)
	}
	epi := Round{Idx: -1}
	for v := 0; v < n; v++ {
		epi.Steps = append(epi.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufStage},
			Count: CountAll, DstStrided: true, SrcStrided: true,
		})
	}
	p.Rounds = append(p.Rounds, epi)
	return p
}

// binomialAllGatherPlan composes gather and broadcast over one staging
// buffer: get-tree rounds aggregate every block at virtual rank 0,
// put-tree rounds push the full concatenation back down, and each PE
// unpacks the virtual-rank-ordered buffer to dest at the caller's
// displacements.
func binomialAllGatherPlan(n int) *Plan {
	p := &Plan{
		Collective: CollAllGather, Algorithm: AlgoBinomial, Span: "allgather", NPEs: n,
		Stage: BufTotal, Adj: AdjVector,
	}
	pro := Round{Idx: -1}
	for v := 0; v < n; v++ {
		pro.Steps = append(pro.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst:   Loc{Buf: BufStage, Off: OffAdj, V: v},
			Src:   Loc{Buf: BufSrc},
			Count: CountBlock, CV: v,
		})
	}
	pro.Steps = append(pro.Steps, barrierStep())
	p.Rounds = append(p.Rounds, pro)
	idx := 0
	for _, edges := range getTreeEdges(n) {
		r := Round{Name: "allgather.round", Idx: idx}
		idx++
		for _, e := range edges {
			r.Steps = append(r.Steps, Step{
				Kind: StepGet, Actor: e.from, Peer: e.to,
				Dst:   Loc{Buf: BufStage, Off: OffAdj, V: e.to},
				Src:   Loc{Buf: BufStage, Off: OffAdj, V: e.to},
				Count: CountSubtree, CV: e.to, CB: e.bit, SkipIfZero: true,
			})
		}
		r.Steps = append(r.Steps, barrierStep())
		p.Rounds = append(p.Rounds, r)
	}
	for _, edges := range putTreeEdges(n) {
		r := Round{Name: "allgather.round", Idx: idx}
		idx++
		for _, e := range edges {
			r.Steps = append(r.Steps, Step{
				Kind: StepPut, Actor: e.from, Peer: e.to,
				Dst: Loc{Buf: BufStage}, Src: Loc{Buf: BufStage},
				Count: CountAll,
			})
		}
		r.Steps = append(r.Steps, barrierStep())
		p.Rounds = append(p.Rounds, r)
	}
	epi := Round{Idx: -1}
	for v := 0; v < n; v++ {
		epi.Steps = append(epi.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst:   Loc{Buf: BufDest, Off: OffDisp, V: 0},
			Src:   Loc{Buf: BufStage, Off: OffAdj, V: 0},
			Count: CountBlock, CV: 0, Blocks: n, BStride: 1,
		})
	}
	p.Rounds = append(p.Rounds, epi)
	return p
}

func compileLinear(coll Collective, n int) *Plan {
	switch coll {
	case CollBroadcast:
		return linearBroadcastPlan(n)
	case CollReduce:
		return linearReducePlan(n)
	case CollScatter:
		return linearScatterPlan(n)
	case CollGather:
		return linearGatherPlan(n)
	}
	return nil
}

// linearBroadcastPlan: the root puts the whole payload to every other
// PE directly; a single barrier closes the exchange.
func linearBroadcastPlan(n int) *Plan {
	p := &Plan{Collective: CollBroadcast, Algorithm: AlgoLinear, Span: "broadcast_linear", NPEs: n}
	r := Round{Name: "broadcast_linear.round", Idx: 0}
	r.Steps = append(r.Steps, Step{
		Kind: StepCopy, Actor: 0, Peer: -1,
		Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufSrc},
		Count: CountAll, DstStrided: true, SrcStrided: true,
		SkipIfAlias: true,
	})
	for v := 1; v < n; v++ {
		r.Steps = append(r.Steps, Step{
			Kind: StepPut, Actor: 0, Peer: v,
			Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufDest},
			Count: CountAll, Strided: true,
		})
	}
	r.Steps = append(r.Steps, barrierStep())
	p.Rounds = append(p.Rounds, r)
	return p
}

// linearReducePlan: every PE stages its contribution, then the root
// seeds dest with its own values and folds in each peer's staged
// partial in turn.
func linearReducePlan(n int) *Plan {
	p := &Plan{
		Collective: CollReduce, Algorithm: AlgoLinear, Span: "reduce_linear", NPEs: n,
		Stage: BufSpan, Scratch: BufSpan, UsesOp: true,
	}
	pro := Round{Idx: -1, Steps: stageAll(n)}
	pro.Steps = append(pro.Steps, barrierStep())
	p.Rounds = append(p.Rounds, pro)
	r := Round{Name: "reduce_linear.round", Idx: 0}
	r.Steps = append(r.Steps, Step{
		Kind: StepCopy, Actor: 0, Peer: -1,
		Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufStage},
		Count: CountAll, DstStrided: true, SrcStrided: true,
	})
	for v := 1; v < n; v++ {
		r.Steps = append(r.Steps,
			Step{
				Kind: StepGet, Actor: 0, Peer: v,
				Dst: Loc{Buf: BufScratch}, Src: Loc{Buf: BufStage},
				Count: CountAll, Strided: true,
			},
			Step{
				Kind: StepCombine, Actor: 0, Peer: -1,
				Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufScratch},
				Count: CountAll, DstStrided: true, SrcStrided: true,
			})
	}
	r.Steps = append(r.Steps, barrierStep())
	p.Rounds = append(p.Rounds, r)
	return p
}

// linearScatterPlan: the root copies its own block and puts every
// other PE's block straight from src — no staging buffer at all.
func linearScatterPlan(n int) *Plan {
	p := &Plan{Collective: CollScatter, Algorithm: AlgoLinear, Span: "scatter_linear", NPEs: n}
	r := Round{Name: "scatter_linear.round", Idx: 0}
	r.Steps = append(r.Steps, Step{
		Kind: StepCopy, Actor: 0, Peer: -1,
		Dst:   Loc{Buf: BufDest},
		Src:   Loc{Buf: BufSrc, Off: OffDisp, V: 0},
		Count: CountBlock, CV: 0,
	})
	for v := 1; v < n; v++ {
		r.Steps = append(r.Steps, Step{
			Kind: StepPut, Actor: 0, Peer: v,
			Dst:   Loc{Buf: BufDest},
			Src:   Loc{Buf: BufSrc, Off: OffDisp, V: v},
			Count: CountBlock, CV: v, SkipIfZero: true,
		})
	}
	r.Steps = append(r.Steps, barrierStep())
	p.Rounds = append(p.Rounds, r)
	return p
}

// linearGatherPlan: every PE stages its block, the root copies its own
// and gets each peer's from the (single-block) staging buffer.
func linearGatherPlan(n int) *Plan {
	p := &Plan{
		Collective: CollGather, Algorithm: AlgoLinear, Span: "gather_linear", NPEs: n,
		Stage: BufMaxBlock,
	}
	pro := Round{Idx: -1}
	for v := 0; v < n; v++ {
		pro.Steps = append(pro.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst: Loc{Buf: BufStage}, Src: Loc{Buf: BufSrc},
			Count: CountBlock, CV: v,
		})
	}
	pro.Steps = append(pro.Steps, barrierStep())
	p.Rounds = append(p.Rounds, pro)
	r := Round{Name: "gather_linear.round", Idx: 0}
	r.Steps = append(r.Steps, Step{
		Kind: StepCopy, Actor: 0, Peer: -1,
		Dst:   Loc{Buf: BufDest, Off: OffDisp, V: 0},
		Src:   Loc{Buf: BufStage},
		Count: CountBlock, CV: 0,
	})
	for v := 1; v < n; v++ {
		r.Steps = append(r.Steps, Step{
			Kind: StepGet, Actor: 0, Peer: v,
			Dst:   Loc{Buf: BufDest, Off: OffDisp, V: v},
			Src:   Loc{Buf: BufStage},
			Count: CountBlock, CV: v, SkipIfZero: true,
		})
	}
	r.Steps = append(r.Steps, barrierStep())
	p.Rounds = append(p.Rounds, r)
	return p
}

// compileScatterAllgather builds the van de Geijn large-message
// broadcast as ONE plan: the payload is chunked equally in
// virtual-rank order (AdjChunks — no pe_msgs vectors needed), the
// chunks ride the binomial put tree exactly like Algorithm 3, each PE
// relocates its own chunk into dest, and a ring circulates the chunks
// until every PE holds the full payload. The wrapper guarantees
// nelems ≥ nPEs > 1 and stride 1.
func compileScatterAllgather(coll Collective, n int) *Plan {
	if coll != CollBroadcast {
		return nil
	}
	p := &Plan{
		Collective: CollBroadcast, Algorithm: AlgoScatterAllgather,
		Span: "broadcast_sag", NPEs: n,
		Stage: BufTotal, Adj: AdjChunks,
	}
	// Scatter phase: the root loads the staging buffer chunk by chunk
	// (the chunks are contiguous in both src and stage, so this is the
	// reorder prologue of Algorithm 3 in the identity layout).
	pro := Round{Idx: -1}
	for v := 0; v < n; v++ {
		pro.Steps = append(pro.Steps, Step{
			Kind: StepCopy, Actor: 0, Peer: -1,
			Dst:   Loc{Buf: BufStage, Off: OffAdj, V: v},
			Src:   Loc{Buf: BufSrc, Off: OffAdj, V: v},
			Count: CountBlock, CV: v,
		})
	}
	pro.Steps = append(pro.Steps, barrierStep())
	p.Rounds = append(p.Rounds, pro)
	idx := 0
	for _, edges := range putTreeEdges(n) {
		r := Round{Name: "broadcast_sag.round", Idx: idx}
		idx++
		for _, e := range edges {
			r.Steps = append(r.Steps, Step{
				Kind: StepPut, Actor: e.from, Peer: e.to,
				Dst:   Loc{Buf: BufStage, Off: OffAdj, V: e.to},
				Src:   Loc{Buf: BufStage, Off: OffAdj, V: e.to},
				Count: CountSubtree, CV: e.to, CB: e.bit, SkipIfZero: true,
			})
		}
		r.Steps = append(r.Steps, barrierStep())
		p.Rounds = append(p.Rounds, r)
	}
	// Each PE relocates its own chunk into dest so the all-gather can
	// run in place; purely local, so no barrier is needed before the
	// first ring round (the writes land in disjoint chunk slots).
	mid := Round{Idx: -1}
	for v := 0; v < n; v++ {
		mid.Steps = append(mid.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst:   Loc{Buf: BufDest, Off: OffAdj, V: v},
			Src:   Loc{Buf: BufStage, Off: OffAdj, V: v},
			Count: CountBlock, CV: v,
		})
	}
	p.Rounds = append(p.Rounds, mid)
	// Ring all-gather: in round r every PE forwards the chunk it
	// received r rounds ago to its right neighbour; after N−1 rounds
	// everyone holds all chunks.
	for r := 0; r < n-1; r++ {
		rd := Round{Name: "broadcast_sag.round", Idx: idx}
		idx++
		for v := 0; v < n; v++ {
			c := ((v-r)%n + n) % n
			rd.Steps = append(rd.Steps, Step{
				Kind: StepPut, Actor: v, Peer: (v + 1) % n,
				Dst:   Loc{Buf: BufDest, Off: OffAdj, V: c},
				Src:   Loc{Buf: BufDest, Off: OffAdj, V: c},
				Count: CountBlock, CV: c, SkipIfZero: true,
			})
		}
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
	}
	return p
}

// compileDirect builds the one-sided direct exchange natural to xBGAS:
// each PE copies its own block locally, then deposits every other
// block into the peers' dest buffers with non-blocking puts — rotated
// starts spread simultaneous senders across distinct receivers — and
// a barrier closes the exchange. The executor waits on every issued
// handle (and returns the pooled handle slice) on success and error
// paths alike.
func compileDirect(coll Collective, n int) *Plan {
	if coll != CollAlltoall {
		return nil
	}
	p := &Plan{Collective: CollAlltoall, Algorithm: AlgoDirect, Span: "alltoall", NPEs: n}
	r := Round{Name: "alltoall.round", Idx: 0, NB: true}
	for v := 0; v < n; v++ {
		r.Steps = append(r.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst:   Loc{Buf: BufDest, Off: OffBlock, V: v},
			Src:   Loc{Buf: BufSrc, Off: OffBlock, V: v},
			Count: CountAll,
		})
		for off := 1; off < n; off++ {
			peer := (v + off) % n
			r.Steps = append(r.Steps, Step{
				Kind: StepPut, Actor: v, Peer: peer,
				Dst:   Loc{Buf: BufDest, Off: OffBlock, V: v},
				Src:   Loc{Buf: BufSrc, Off: OffBlock, V: peer},
				Count: CountAll,
			})
		}
	}
	r.Steps = append(r.Steps, barrierStep())
	p.Rounds = append(p.Rounds, r)
	return p
}

// The segmented planners: the same binomial trees, but the payload is
// split into S near-equal segments that flow through the tree as a
// pipeline. Instead of closing every round with a world barrier, each
// hop is ordered by a point-to-point signal/wait pair on a flag word in
// the symmetric segment: a parent forwards segment k while segment k+1
// is still in flight to it, so the critical path shrinks from
// ⌈log₂ n⌉ whole-message rounds to ⌈log₂ n⌉+S−1 segment steps (Träff's
// doubly-pipelined schedules are the reference shape). One trailing
// barrier keeps the collective synchronising, which also guarantees
// every flag post is consumed before the plan's flag block is freed.

func compileBinomialSeg(coll Collective, n, segments int) *Plan {
	if n < 2 || segments < 2 {
		return nil // degenerate; the unsegmented plan is already optimal
	}
	switch coll {
	case CollBroadcast:
		return segmentedBroadcastPlan(n, segments)
	case CollReduce:
		return segmentedReducePlan(n, segments)
	case CollAllReduce:
		return segmentedAllReducePlan(n, segments)
	case CollScatter:
		// Scatter blocks are sized by runtime pe_msgs data, so they
		// cannot be sub-chunked at compile time; the segmented form is
		// the flag-pipelined tree at subtree-block granularity.
		return pipelinedScatterPlan(n)
	}
	return nil
}

// segmentedBroadcastPlan pipelines Algorithm 1: one non-blocking round
// per segment, each hop gated by the receiver's wait on the segment's
// flag and closed by the sender's signal (ordered after the put on the
// same channel). A PE's reception round precedes its sending rounds in
// the put tree, so emitting tree rounds in order keeps every actor's
// wait ahead of its forwards.
func segmentedBroadcastPlan(n, s int) *Plan {
	p := &Plan{
		Collective: CollBroadcast, Algorithm: AlgoBinomial, Span: "broadcast", NPEs: n,
		Segments: s, FlagWords: s, Depth: CeilLog2(n) + s - 1,
	}
	p.Rounds = append(p.Rounds, Round{Idx: -1, Steps: []Step{{
		Kind: StepCopy, Actor: 0, Peer: -1,
		Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufSrc},
		Count: CountAll, DstStrided: true, SrcStrided: true,
		SkipIfAlias: true,
	}}})
	edges := putTreeEdges(n)
	for seg := 0; seg < s; seg++ {
		r := Round{Name: "broadcast.round", Idx: seg, NB: true}
		for _, round := range edges {
			for _, e := range round {
				r.Steps = append(r.Steps,
					Step{Kind: StepWaitFlag, Actor: e.to, Peer: -1, Flag: seg},
					Step{
						Kind: StepPut, Actor: e.from, Peer: e.to,
						Dst:   Loc{Buf: BufDest, Off: OffSeg, V: seg},
						Src:   Loc{Buf: BufDest, Off: OffSeg, V: seg},
						Count: CountSeg, CV: seg, Strided: true, SkipIfZero: true,
					},
					Step{Kind: StepSignal, Actor: e.from, Peer: e.to, Flag: seg},
				)
			}
		}
		p.Rounds = append(p.Rounds, r)
	}
	p.Rounds = append(p.Rounds, Round{Idx: -1, Steps: []Step{barrierStep()}})
	return p
}

// segmentedReducePlan pipelines Algorithm 2: per segment, every PE
// stages its contribution slice, then each get-tree hop runs as the
// owner signalling "my partial for this segment is folded" and the
// puller waiting, pulling, and combining. Flags are indexed per
// {tree round, segment} because a PE's partial becomes ready once per
// harvest round.
func segmentedReducePlan(n, s int) *Plan {
	rounds := getTreeEdges(n)
	t := len(rounds)
	p := &Plan{
		Collective: CollReduce, Algorithm: AlgoBinomial, Span: "reduce", NPEs: n,
		Stage: BufSpan, Scratch: BufSpan, UsesOp: true,
		Segments: s, FlagWords: t * s, Depth: t + s - 1,
	}
	for seg := 0; seg < s; seg++ {
		r := Round{Name: "reduce.round", Idx: seg}
		for v := 0; v < n; v++ {
			r.Steps = append(r.Steps, Step{
				Kind: StepCopy, Actor: v, Peer: -1,
				Dst:   Loc{Buf: BufStage, Off: OffSeg, V: seg},
				Src:   Loc{Buf: BufSrc, Off: OffSeg, V: seg},
				Count: CountSeg, CV: seg, DstStrided: true, SrcStrided: true,
			})
		}
		appendSegReduceSteps(&r, rounds, s, seg, 0)
		p.Rounds = append(p.Rounds, r)
	}
	p.Rounds = append(p.Rounds, Round{Idx: -1, Steps: []Step{{
		Kind: StepCopy, Actor: 0, Peer: -1,
		Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufStage},
		Count: CountAll, DstStrided: true, SrcStrided: true,
	}, barrierStep()}})
	return p
}

// appendSegReduceSteps emits one segment's get-tree fold into r: per
// edge the owner signals flag flagBase+t·s+seg, the puller waits,
// pulls the owner's staged segment into scratch, and combines it in.
// The owner's signal is emitted at its harvest round, after its own
// pull steps of earlier rounds, so actor order encodes the dependency.
func appendSegReduceSteps(r *Round, rounds [][]treeEdge, s, seg, flagBase int) {
	for t, edges := range rounds {
		for _, e := range edges {
			f := flagBase + t*s + seg
			r.Steps = append(r.Steps,
				Step{Kind: StepSignal, Actor: e.to, Peer: e.from, Flag: f},
				Step{Kind: StepWaitFlag, Actor: e.from, Peer: -1, Flag: f},
				Step{
					Kind: StepGet, Actor: e.from, Peer: e.to,
					Dst:   Loc{Buf: BufScratch, Off: OffSeg, V: seg},
					Src:   Loc{Buf: BufStage, Off: OffSeg, V: seg},
					Count: CountSeg, CV: seg, Strided: true,
				},
				Step{
					Kind: StepCombine, Actor: e.from, Peer: -1,
					Dst:   Loc{Buf: BufStage, Off: OffSeg, V: seg},
					Src:   Loc{Buf: BufScratch, Off: OffSeg, V: seg},
					Count: CountSeg, CV: seg, DstStrided: true, SrcStrided: true,
				})
		}
	}
}

// segmentedAllReducePlan interleaves the two phases per segment: fold
// segment k to virtual rank 0, then pipe it straight back down the put
// tree while segment k+1 is still folding. Broadcast-phase puts into a
// PE's staged segment are safe because the only reduce-phase reader of
// that slice (its harvest partner) finished before the root could have
// completed the segment at all.
func segmentedAllReducePlan(n, s int) *Plan {
	up := getTreeEdges(n)
	down := putTreeEdges(n)
	t1 := len(up)
	p := &Plan{
		Collective: CollAllReduce, Algorithm: AlgoBinomial, Span: "allreduce", NPEs: n,
		Stage: BufSpan, Scratch: BufSpan, UsesOp: true,
		Segments: s, FlagWords: (t1 + 1) * s, Depth: t1 + len(down) + 2*(s-1),
	}
	idx := 0
	for seg := 0; seg < s; seg++ {
		r := Round{Name: "allreduce.round", Idx: idx}
		idx++
		for v := 0; v < n; v++ {
			r.Steps = append(r.Steps, Step{
				Kind: StepCopy, Actor: v, Peer: -1,
				Dst:   Loc{Buf: BufStage, Off: OffSeg, V: seg},
				Src:   Loc{Buf: BufSrc, Off: OffSeg, V: seg},
				Count: CountSeg, CV: seg, DstStrided: true, SrcStrided: true,
			})
		}
		appendSegReduceSteps(&r, up, s, seg, 0)
		p.Rounds = append(p.Rounds, r)

		rb := Round{Name: "allreduce.round", Idx: idx, NB: true}
		idx++
		f := t1*s + seg
		for _, round := range down {
			for _, e := range round {
				rb.Steps = append(rb.Steps,
					Step{Kind: StepWaitFlag, Actor: e.to, Peer: -1, Flag: f},
					Step{
						Kind: StepPut, Actor: e.from, Peer: e.to,
						Dst:   Loc{Buf: BufStage, Off: OffSeg, V: seg},
						Src:   Loc{Buf: BufStage, Off: OffSeg, V: seg},
						Count: CountSeg, CV: seg, Strided: true, SkipIfZero: true,
					},
					Step{Kind: StepSignal, Actor: e.from, Peer: e.to, Flag: f},
				)
			}
		}
		p.Rounds = append(p.Rounds, rb)
	}
	epi := Round{Idx: -1}
	for v := 0; v < n; v++ {
		epi.Steps = append(epi.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufStage},
			Count: CountAll, DstStrided: true, SrcStrided: true,
		})
	}
	epi.Steps = append(epi.Steps, barrierStep())
	p.Rounds = append(p.Rounds, epi)
	return p
}

// pipelinedScatterPlan is Algorithm 3 with the per-round barriers
// replaced by the flag chain: each receiver waits for its subtree
// block, then its own forwards (emitted in later tree rounds) push the
// children's sub-blocks on. Blocks are sized by runtime pe_msgs data,
// so the granularity stays one subtree block per hop and a single flag
// word suffices — each PE receives exactly once. All puts ride one
// non-blocking round, so a sender's forwards to different children
// overlap like the direct alltoall exchange.
func pipelinedScatterPlan(n int) *Plan {
	p := &Plan{
		Collective: CollScatter, Algorithm: AlgoBinomial, Span: "scatter", NPEs: n,
		Stage: BufTotal, Adj: AdjVector,
		FlagWords: 1, Depth: CeilLog2(n),
	}
	pro := Round{Idx: -1}
	for v := 0; v < n; v++ {
		pro.Steps = append(pro.Steps, Step{
			Kind: StepCopy, Actor: 0, Peer: -1,
			Dst:   Loc{Buf: BufStage, Off: OffAdj, V: v},
			Src:   Loc{Buf: BufSrc, Off: OffDisp, V: v},
			Count: CountBlock, CV: v,
		})
	}
	p.Rounds = append(p.Rounds, pro)
	r := Round{Name: "scatter.round", Idx: 0, NB: true}
	for _, round := range putTreeEdges(n) {
		for _, e := range round {
			r.Steps = append(r.Steps,
				Step{Kind: StepWaitFlag, Actor: e.to, Peer: -1, Flag: 0},
				Step{
					Kind: StepPut, Actor: e.from, Peer: e.to,
					Dst:   Loc{Buf: BufStage, Off: OffAdj, V: e.to},
					Src:   Loc{Buf: BufStage, Off: OffAdj, V: e.to},
					Count: CountSubtree, CV: e.to, CB: e.bit, SkipIfZero: true,
				},
				Step{Kind: StepSignal, Actor: e.from, Peer: e.to, Flag: 0},
			)
		}
	}
	p.Rounds = append(p.Rounds, r)
	epi := Round{Idx: -1}
	for v := 0; v < n; v++ {
		epi.Steps = append(epi.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst:   Loc{Buf: BufDest},
			Src:   Loc{Buf: BufStage, Off: OffAdj, V: v},
			Count: CountBlock, CV: v,
		})
	}
	epi.Steps = append(epi.Steps, barrierStep())
	p.Rounds = append(p.Rounds, epi)
	return p
}
