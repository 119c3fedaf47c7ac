package core

// The hierarchical planner family: two-level schedules for grouped
// (nodes × PEs-per-node) fabrics, where intra-node links are cheap and
// the inter-node links behind the shared switch are not. Every schedule
// is built so the bulk of the payload moves intra-node and the
// inter-node phase carries only what must cross — the per-node-reduced
// partials, or one copy of each node's contribution.
//
// Two forms cover the PE layouts:
//
//   - rail form (n divisible by PerNode): member m of every node forms
//     "rail" m, an NCCL-multi-rail-style schedule — an intra-node ring
//     reduce-scatter splits the vector into per-member superchunks,
//     each rail runs the inter-node ring over its own superchunk with
//     all P rails in flight concurrently, and an intra-node allgather
//     reassembles. No PE is idle in any phase and the inter-node
//     traffic per PE drops by the node width.
//   - leader form (uneven groups, and the rooted collectives): binomial
//     trees inside each node elect virtual rank i·P as the node leader,
//     the leaders run the existing flat schedule (ring for the rootless
//     collectives, binomial trees for broadcast/reduce) among
//     themselves, and intra-node trees fan the result back out.
//
// Plans stay in virtual-rank space like every other planner: node
// boundaries are drawn on virtual ranks, which matches the physical
// grouping exactly for the canonical root 0 and is a rotation of it for
// other roots.

// hierGroups returns the group count for n PEs at P per node.
func hierGroups(n, P int) int { return (n + P - 1) / P }

// hierGroupSize returns the population of group i (the last group may
// be partial).
func hierGroupSize(n, P, i int) int {
	lo := i * P
	hi := lo + P
	if hi > n {
		hi = n
	}
	return hi - lo
}

// compileHier is the hierarchical Compile hook. The two-level
// schedules chunk internally, so there is no segmented form; a flat
// shape is one node holding every PE, where the intra phases become
// the whole schedule.
func compileHier(coll Collective, n, segments int, sh Shape) *Plan {
	if segments > 1 {
		return nil
	}
	P := sh.PerNode
	if P < 1 || P > n {
		P = n
	}
	switch coll {
	case CollAllReduce:
		if P > 1 && n%P == 0 && n/P > 1 {
			return hierRailAllReducePlan(n, P)
		}
		return hierLeaderAllReducePlan(n, P)
	case CollAllGather:
		if P > 1 && n%P == 0 && n/P > 1 {
			return hierRailAllGatherPlan(n, P)
		}
		return hierLeaderAllGatherPlan(n, P)
	case CollBroadcast:
		return hierBroadcastPlan(n, P)
	case CollReduce:
		return hierReducePlan(n, P)
	}
	return nil
}

// hierRailAllReducePlan: intra-node ring reduce-scatter over P
// superchunks of g blocks each, a per-rail inter-node ring
// reduce-scatter + allgather on each member's superchunk, and an
// intra-node allgather of the reduced superchunks. Inter-node volume
// per PE is 2·(g−1)/n of the payload — the flat ring's volume divided
// by the node width.
func hierRailAllReducePlan(n, P int) *Plan {
	g := n / P
	span := "allreduce_hier"
	p := &Plan{
		Collective: CollAllReduce, Algorithm: AlgoHier, Span: span, NPEs: n,
		Stage: BufTotal, Scratch: BufTotal, Adj: AdjChunks, UsesOp: true,
		Chunked: true, Depth: 2*(P-1) + 2*(g-1),
	}
	pro := Round{Idx: -1}
	for v := 0; v < n; v++ {
		pro.Steps = append(pro.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst: Loc{Buf: BufStage}, Src: Loc{Buf: BufSrc},
			Count: CountAll, SrcStrided: true,
		})
	}
	pro.Steps = append(pro.Steps, barrierStep())
	p.Rounds = append(p.Rounds, pro)
	idx := 0
	// Phase 1: intra-node ring reduce-scatter over superchunks. After
	// P−1 rounds member m holds superchunk m summed over its node.
	for r := 0; r < P-1; r++ {
		rd := Round{Name: span + ".round", Idx: idx}
		idx++
		for v := 0; v < n; v++ {
			i, m := v/P, v%P
			peer := i*P + (m-1+P)%P
			s := ringChunk(m, r, P) * g
			rd.Steps = append(rd.Steps,
				Step{
					Kind: StepGet, Actor: v, Peer: peer,
					Dst:   Loc{Buf: BufScratch, Off: OffAdj, V: s},
					Src:   Loc{Buf: BufStage, Off: OffAdj, V: s},
					Count: CountRun, CV: s, CB: g, SkipIfZero: true,
				},
				Step{
					Kind: StepCombine, Actor: v, Peer: -1,
					Dst:   Loc{Buf: BufStage, Off: OffAdj, V: s},
					Src:   Loc{Buf: BufScratch, Off: OffAdj, V: s},
					Count: CountRun, CV: s, CB: g,
				})
		}
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
	}
	// Phase 2a: per-rail inter-node ring reduce-scatter — rail m
	// distributes superchunk m's g blocks over the g nodes. After g−1
	// rounds member m of node i holds block m·g+i globally reduced.
	for r := 0; r < g-1; r++ {
		rd := Round{Name: span + ".round", Idx: idx}
		idx++
		for v := 0; v < n; v++ {
			i, m := v/P, v%P
			peer := ((i-1+g)%g)*P + m
			c := m*g + ringChunk(i, r, g)
			rd.Steps = append(rd.Steps,
				Step{
					Kind: StepGet, Actor: v, Peer: peer,
					Dst:   Loc{Buf: BufScratch, Off: OffAdj, V: c},
					Src:   Loc{Buf: BufStage, Off: OffAdj, V: c},
					Count: CountBlock, CV: c, SkipIfZero: true,
				},
				Step{
					Kind: StepCombine, Actor: v, Peer: -1,
					Dst:   Loc{Buf: BufStage, Off: OffAdj, V: c},
					Src:   Loc{Buf: BufScratch, Off: OffAdj, V: c},
					Count: CountBlock, CV: c,
				})
		}
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
	}
	// Phase 2b: per-rail inter-node ring allgather of the reduced
	// blocks; every rail member ends with superchunk m complete.
	for r := 0; r < g-1; r++ {
		rd := Round{Name: span + ".round", Idx: idx}
		idx++
		for v := 0; v < n; v++ {
			i, m := v/P, v%P
			peer := ((i-1+g)%g)*P + m
			c := m*g + ((i-1-r)%g+g)%g
			rd.Steps = append(rd.Steps, Step{
				Kind: StepGet, Actor: v, Peer: peer,
				Dst:   Loc{Buf: BufStage, Off: OffAdj, V: c},
				Src:   Loc{Buf: BufStage, Off: OffAdj, V: c},
				Count: CountBlock, CV: c, SkipIfZero: true,
			})
		}
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
	}
	// Phase 3: intra-node ring allgather of the superchunks.
	for r := 0; r < P-1; r++ {
		rd := Round{Name: span + ".round", Idx: idx}
		idx++
		for v := 0; v < n; v++ {
			i, m := v/P, v%P
			peer := i*P + (m-1+P)%P
			s := ((m-1-r)%P + P) % P * g
			rd.Steps = append(rd.Steps, Step{
				Kind: StepGet, Actor: v, Peer: peer,
				Dst:   Loc{Buf: BufStage, Off: OffAdj, V: s},
				Src:   Loc{Buf: BufStage, Off: OffAdj, V: s},
				Count: CountRun, CV: s, CB: g, SkipIfZero: true,
			})
		}
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
	}
	epi := Round{Idx: -1}
	for v := 0; v < n; v++ {
		epi.Steps = append(epi.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufStage},
			Count: CountAll, DstStrided: true,
		})
	}
	p.Rounds = append(p.Rounds, epi)
	return p
}

// hierLeaderAllReducePlan: binomial reduce of the full vector to each
// node leader, a ring reduce-scatter + allgather over the g leaders on
// near-equal block runs, and a binomial broadcast back inside each
// node. Handles uneven node populations (the last node may be partial).
func hierLeaderAllReducePlan(n, P int) *Plan {
	g := hierGroups(n, P)
	span := "allreduce_hier"
	p := &Plan{
		Collective: CollAllReduce, Algorithm: AlgoHier, Span: span, NPEs: n,
		Stage: BufTotal, Scratch: BufTotal, Adj: AdjChunks, UsesOp: true,
		Chunked: true, Depth: 2*CeilLog2(P) + 2*(g-1),
	}
	pro := Round{Idx: -1}
	for v := 0; v < n; v++ {
		pro.Steps = append(pro.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst: Loc{Buf: BufStage}, Src: Loc{Buf: BufSrc},
			Count: CountAll, SrcStrided: true,
		})
	}
	pro.Steps = append(pro.Steps, barrierStep())
	p.Rounds = append(p.Rounds, pro)
	idx := 0
	// Phase 1: intra-node binomial get-tree reduce of the full vector,
	// rounds aligned across groups so one barrier closes each level.
	edgesBy := make([][][]treeEdge, g)
	intraRounds := 0
	for i := 0; i < g; i++ {
		edgesBy[i] = getTreeEdges(hierGroupSize(n, P, i))
		if len(edgesBy[i]) > intraRounds {
			intraRounds = len(edgesBy[i])
		}
	}
	for j := 0; j < intraRounds; j++ {
		rd := Round{Name: span + ".round", Idx: idx}
		idx++
		for i := 0; i < g; i++ {
			if j >= len(edgesBy[i]) {
				continue
			}
			base := i * P
			for _, e := range edgesBy[i][j] {
				rd.Steps = append(rd.Steps,
					Step{
						Kind: StepGet, Actor: base + e.from, Peer: base + e.to,
						Dst: Loc{Buf: BufScratch}, Src: Loc{Buf: BufStage},
						Count: CountAll,
					},
					Step{
						Kind: StepCombine, Actor: base + e.from, Peer: -1,
						Dst: Loc{Buf: BufStage}, Src: Loc{Buf: BufScratch},
						Count: CountAll,
					})
			}
		}
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
	}
	// Phase 2: ring reduce-scatter + allgather over the leaders on g
	// near-equal runs of chunk blocks (run s = blocks [s·n/g, (s+1)·n/g)).
	bounds := make([]int, g+1)
	for s := 0; s <= g; s++ {
		bounds[s] = s * n / g
	}
	for r := 0; r < g-1; r++ {
		rd := Round{Name: span + ".round", Idx: idx}
		idx++
		for i := 0; i < g; i++ {
			peer := ((i - 1 + g) % g) * P
			s := ringChunk(i, r, g)
			cv, cb := bounds[s], bounds[s+1]-bounds[s]
			rd.Steps = append(rd.Steps,
				Step{
					Kind: StepGet, Actor: i * P, Peer: peer,
					Dst:   Loc{Buf: BufScratch, Off: OffAdj, V: cv},
					Src:   Loc{Buf: BufStage, Off: OffAdj, V: cv},
					Count: CountRun, CV: cv, CB: cb, SkipIfZero: true,
				},
				Step{
					Kind: StepCombine, Actor: i * P, Peer: -1,
					Dst:   Loc{Buf: BufStage, Off: OffAdj, V: cv},
					Src:   Loc{Buf: BufScratch, Off: OffAdj, V: cv},
					Count: CountRun, CV: cv, CB: cb,
				})
		}
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
	}
	for r := 0; r < g-1; r++ {
		rd := Round{Name: span + ".round", Idx: idx}
		idx++
		for i := 0; i < g; i++ {
			peer := ((i - 1 + g) % g) * P
			s := ((i-1-r)%g + g) % g
			cv, cb := bounds[s], bounds[s+1]-bounds[s]
			rd.Steps = append(rd.Steps, Step{
				Kind: StepGet, Actor: i * P, Peer: peer,
				Dst:   Loc{Buf: BufStage, Off: OffAdj, V: cv},
				Src:   Loc{Buf: BufStage, Off: OffAdj, V: cv},
				Count: CountRun, CV: cv, CB: cb, SkipIfZero: true,
			})
		}
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
	}
	// Phase 3: intra-node binomial put-tree broadcast of the reduced
	// vector.
	putBy := make([][][]treeEdge, g)
	intraRounds = 0
	for i := 0; i < g; i++ {
		putBy[i] = putTreeEdges(hierGroupSize(n, P, i))
		if len(putBy[i]) > intraRounds {
			intraRounds = len(putBy[i])
		}
	}
	for j := 0; j < intraRounds; j++ {
		rd := Round{Name: span + ".round", Idx: idx}
		idx++
		for i := 0; i < g; i++ {
			if j >= len(putBy[i]) {
				continue
			}
			base := i * P
			for _, e := range putBy[i][j] {
				rd.Steps = append(rd.Steps, Step{
					Kind: StepPut, Actor: base + e.from, Peer: base + e.to,
					Dst: Loc{Buf: BufStage}, Src: Loc{Buf: BufStage},
					Count: CountAll,
				})
			}
		}
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
	}
	epi := Round{Idx: -1}
	for v := 0; v < n; v++ {
		epi.Steps = append(epi.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufStage},
			Count: CountAll, DstStrided: true,
		})
	}
	p.Rounds = append(p.Rounds, epi)
	return p
}

// hierRailAllGatherPlan: a per-rail inter-node ring allgather collects
// each rail's column of blocks, then an intra-node ring allgather of
// whole columns (one multi-block step per hop) completes the vector.
// Each block crosses the inter-node links exactly g−1 times total
// across the node — 1/P of the flat ring's crossings.
func hierRailAllGatherPlan(n, P int) *Plan {
	g := n / P
	span := "allgather_hier"
	p := &Plan{
		Collective: CollAllGather, Algorithm: AlgoHier, Span: span, NPEs: n,
		Stage: BufTotal, Adj: AdjVector, Chunked: true,
		Depth: (g - 1) + (P - 1),
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
	// Phase A: rail ring allgather over the nodes — member m of node i
	// collects column m (blocks ≡ m mod P) from its rail.
	for r := 0; r < g-1; r++ {
		rd := Round{Name: span + ".round", Idx: idx}
		idx++
		for v := 0; v < n; v++ {
			i, m := v/P, v%P
			peer := ((i-1+g)%g)*P + m
			b := ((i-1-r)%g+g)%g*P + m
			rd.Steps = append(rd.Steps, Step{
				Kind: StepGet, Actor: v, Peer: peer,
				Dst:   Loc{Buf: BufStage, Off: OffAdj, V: b},
				Src:   Loc{Buf: BufStage, Off: OffAdj, V: b},
				Count: CountBlock, CV: b, SkipIfZero: true,
			})
		}
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
	}
	// Phase B: intra-node ring allgather of whole columns; one
	// multi-block get moves the g blocks of column m' per hop.
	for r := 0; r < P-1; r++ {
		rd := Round{Name: span + ".round", Idx: idx}
		idx++
		for v := 0; v < n; v++ {
			i, m := v/P, v%P
			peer := i*P + (m-1+P)%P
			mp := ((m-1-r)%P + P) % P
			rd.Steps = append(rd.Steps, Step{
				Kind: StepGet, Actor: v, Peer: peer,
				Dst:   Loc{Buf: BufStage, Off: OffAdj, V: mp},
				Src:   Loc{Buf: BufStage, Off: OffAdj, V: mp},
				Count: CountBlock, CV: mp, SkipIfZero: true,
				Blocks: g, BStride: P,
			})
		}
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
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

// hierLeaderAllGatherPlan: binomial gather of each node's blocks to its
// leader, a ring allgather of whole node runs over the leaders, and a
// binomial broadcast of the assembled vector back inside each node.
func hierLeaderAllGatherPlan(n, P int) *Plan {
	g := hierGroups(n, P)
	span := "allgather_hier"
	p := &Plan{
		Collective: CollAllGather, Algorithm: AlgoHier, Span: span, NPEs: n,
		Stage: BufTotal, Adj: AdjVector, Chunked: true,
		Depth: 2*CeilLog2(P) + (g - 1),
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
	// Phase 1: intra-node binomial gather, rounds aligned across groups.
	// Subtree runs are clipped to the group, so CountRun carries the
	// explicit block count instead of CountSubtree's global clip.
	edgesBy := make([][][]treeEdge, g)
	intraRounds := 0
	for i := 0; i < g; i++ {
		edgesBy[i] = getTreeEdges(hierGroupSize(n, P, i))
		if len(edgesBy[i]) > intraRounds {
			intraRounds = len(edgesBy[i])
		}
	}
	for j := 0; j < intraRounds; j++ {
		rd := Round{Name: span + ".round", Idx: idx}
		idx++
		for i := 0; i < g; i++ {
			if j >= len(edgesBy[i]) {
				continue
			}
			base, size := i*P, hierGroupSize(n, P, i)
			for _, e := range edgesBy[i][j] {
				run := 1 << uint(e.bit)
				if size-e.to < run {
					run = size - e.to
				}
				rd.Steps = append(rd.Steps, Step{
					Kind: StepGet, Actor: base + e.from, Peer: base + e.to,
					Dst:   Loc{Buf: BufStage, Off: OffAdj, V: base + e.to},
					Src:   Loc{Buf: BufStage, Off: OffAdj, V: base + e.to},
					Count: CountRun, CV: base + e.to, CB: run, SkipIfZero: true,
				})
			}
		}
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
	}
	// Phase 2: ring allgather of whole node runs over the leaders.
	for r := 0; r < g-1; r++ {
		rd := Round{Name: span + ".round", Idx: idx}
		idx++
		for i := 0; i < g; i++ {
			peer := ((i - 1 + g) % g) * P
			s := ((i-1-r)%g + g) % g
			rd.Steps = append(rd.Steps, Step{
				Kind: StepGet, Actor: i * P, Peer: peer,
				Dst:   Loc{Buf: BufStage, Off: OffAdj, V: s * P},
				Src:   Loc{Buf: BufStage, Off: OffAdj, V: s * P},
				Count: CountRun, CV: s * P, CB: hierGroupSize(n, P, s),
				SkipIfZero: true,
			})
		}
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
	}
	// Phase 3: intra-node binomial broadcast of the assembled vector.
	putBy := make([][][]treeEdge, g)
	intraRounds = 0
	for i := 0; i < g; i++ {
		putBy[i] = putTreeEdges(hierGroupSize(n, P, i))
		if len(putBy[i]) > intraRounds {
			intraRounds = len(putBy[i])
		}
	}
	for j := 0; j < intraRounds; j++ {
		rd := Round{Name: span + ".round", Idx: idx}
		idx++
		for i := 0; i < g; i++ {
			if j >= len(putBy[i]) {
				continue
			}
			base := i * P
			for _, e := range putBy[i][j] {
				rd.Steps = append(rd.Steps, Step{
					Kind: StepPut, Actor: base + e.from, Peer: base + e.to,
					Dst:   Loc{Buf: BufStage, Off: OffZero},
					Src:   Loc{Buf: BufStage, Off: OffZero},
					Count: CountRun, CV: 0, CB: n, SkipIfZero: true,
				})
			}
		}
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
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

// hierBroadcastPlan: a binomial put tree over the node leaders, then
// aligned binomial put trees inside every node — the whole payload
// crosses the inter-node links ⌈log₂ g⌉ times instead of the flat
// tree's ⌈log₂ n⌉.
func hierBroadcastPlan(n, P int) *Plan {
	g := hierGroups(n, P)
	p := &Plan{
		Collective: CollBroadcast, Algorithm: AlgoHier, Span: "broadcast_hier",
		NPEs: n, Chunked: true, Depth: CeilLog2(g) + CeilLog2(P),
	}
	p.Rounds = append(p.Rounds, Round{Idx: -1, Steps: []Step{{
		Kind: StepCopy, Actor: 0, Peer: -1,
		Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufSrc},
		Count: CountAll, DstStrided: true, SrcStrided: true,
		SkipIfAlias: true,
	}}})
	idx := 0
	for _, edges := range putTreeEdges(g) {
		rd := Round{Name: "broadcast_hier.round", Idx: idx}
		idx++
		for _, e := range edges {
			rd.Steps = append(rd.Steps, Step{
				Kind: StepPut, Actor: e.from * P, Peer: e.to * P,
				Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufDest},
				Count: CountAll, Strided: true,
			})
		}
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
	}
	putBy := make([][][]treeEdge, g)
	intraRounds := 0
	for i := 0; i < g; i++ {
		putBy[i] = putTreeEdges(hierGroupSize(n, P, i))
		if len(putBy[i]) > intraRounds {
			intraRounds = len(putBy[i])
		}
	}
	for j := 0; j < intraRounds; j++ {
		rd := Round{Name: "broadcast_hier.round", Idx: idx}
		idx++
		for i := 0; i < g; i++ {
			if j >= len(putBy[i]) {
				continue
			}
			base := i * P
			for _, e := range putBy[i][j] {
				rd.Steps = append(rd.Steps, Step{
					Kind: StepPut, Actor: base + e.from, Peer: base + e.to,
					Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufDest},
					Count: CountAll, Strided: true,
				})
			}
		}
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
	}
	return p
}

// hierReducePlan: aligned binomial get trees inside every node reduce
// to the leaders, a binomial get tree over the leaders reduces to the
// root. The element path and buffer discipline mirror the paper's
// binomial reduce.
func hierReducePlan(n, P int) *Plan {
	g := hierGroups(n, P)
	p := &Plan{
		Collective: CollReduce, Algorithm: AlgoHier, Span: "reduce_hier", NPEs: n,
		Stage: BufSpan, Scratch: BufSpan, UsesOp: true,
		Depth: CeilLog2(P) + CeilLog2(g),
	}
	pro := Round{Idx: -1, Steps: stageAll(n)}
	pro.Steps = append(pro.Steps, barrierStep())
	p.Rounds = append(p.Rounds, pro)
	idx := 0
	edgesBy := make([][][]treeEdge, g)
	intraRounds := 0
	for i := 0; i < g; i++ {
		edgesBy[i] = getTreeEdges(hierGroupSize(n, P, i))
		if len(edgesBy[i]) > intraRounds {
			intraRounds = len(edgesBy[i])
		}
	}
	for j := 0; j < intraRounds; j++ {
		rd := Round{Name: "reduce_hier.round", Idx: idx}
		idx++
		for i := 0; i < g; i++ {
			if j >= len(edgesBy[i]) {
				continue
			}
			base := i * P
			for _, e := range edgesBy[i][j] {
				rd.Steps = append(rd.Steps,
					Step{
						Kind: StepGet, Actor: base + e.from, Peer: base + e.to,
						Dst: Loc{Buf: BufScratch}, Src: Loc{Buf: BufStage},
						Count: CountAll, Strided: true,
					},
					Step{
						Kind: StepCombine, Actor: base + e.from, Peer: -1,
						Dst: Loc{Buf: BufStage}, Src: Loc{Buf: BufScratch},
						Count: CountAll, DstStrided: true, SrcStrided: true,
					})
			}
		}
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
	}
	for _, edges := range getTreeEdges(g) {
		rd := Round{Name: "reduce_hier.round", Idx: idx}
		idx++
		for _, e := range edges {
			rd.Steps = append(rd.Steps,
				Step{
					Kind: StepGet, Actor: e.from * P, Peer: e.to * P,
					Dst: Loc{Buf: BufScratch}, Src: Loc{Buf: BufStage},
					Count: CountAll, Strided: true,
				},
				Step{
					Kind: StepCombine, Actor: e.from * P, Peer: -1,
					Dst: Loc{Buf: BufStage}, Src: Loc{Buf: BufScratch},
					Count: CountAll, DstStrided: true, SrcStrided: true,
				})
		}
		rd.Steps = append(rd.Steps, barrierStep())
		p.Rounds = append(p.Rounds, rd)
	}
	p.Rounds = append(p.Rounds, Round{Idx: -1, Steps: []Step{{
		Kind: StepCopy, Actor: 0, Peer: -1,
		Dst: Loc{Buf: BufDest}, Src: Loc{Buf: BufStage},
		Count: CountAll, DstStrided: true, SrcStrided: true,
	}}})
	return p
}

func init() {
	RegisterPlanner(&Planner{
		Name: AlgoHier,
		Collectives: []Collective{
			CollBroadcast, CollReduce, CollAllReduce, CollAllGather,
		},
		Compile: compileHier,
		Shaped:  true,
	})
}
