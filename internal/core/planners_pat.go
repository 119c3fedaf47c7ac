package core

// The PAT (Parallel Aggregated Trees) planner: log-depth allgather and
// reduce-scatter that move aggregated runs of blocks instead of one
// block per round. The allgather is the Bruck-style doubling schedule
// in block space — after round k every PE owns the min(2^(k+1), n)
// consecutive blocks starting at its own — and the reduce-scatter is
// its time-reversed mirror: the same transfer graph with the edges
// reversed, rounds run in descending order, and a combine replacing
// each landing. Both finish in ⌈log₂ n⌉ rounds at any PE count (no
// power-of-two fallback) while matching the ring planners' per-byte
// volume within a factor (n/(n−1))·⌈log₂ n⌉/... — the point is pairing
// ring-like volume with tree-like depth, which is what wins once α
// dominates at scale. Runs are contiguous in virtual-rank block order,
// so CountRun/OffAdj express each transfer in at most two steps (one
// wrap split).

func compilePAT(coll Collective, n int) *Plan {
	switch coll {
	case CollAllGather:
		return patAllGatherPlan(n)
	case CollReduceScatter:
		return patReduceScatterPlan(n)
	}
	return nil
}

// patRunSteps appends to steps one get per contiguous piece of the
// block run [start, start+length) mod n: the run lives at the same
// adjusted offsets on both sides, landing in dst.
func patRunSteps(steps []Step, v, peer, start, length, n int, dstBuf BufRef) []Step {
	s1 := start % n
	l1 := length
	if s1+l1 > n {
		l1 = n - s1
	}
	steps = append(steps, Step{
		Kind: StepGet, Actor: v, Peer: peer,
		Dst:   Loc{Buf: dstBuf, Off: OffAdj, V: s1},
		Src:   Loc{Buf: BufStage, Off: OffAdj, V: s1},
		Count: CountRun, CV: s1, CB: l1, SkipIfZero: true,
	})
	if l1 < length {
		l2 := length - l1
		steps = append(steps, Step{
			Kind: StepGet, Actor: v, Peer: peer,
			Dst:   Loc{Buf: dstBuf, Off: OffAdj, V: 0},
			Src:   Loc{Buf: BufStage, Off: OffAdj, V: 0},
			Count: CountRun, CV: 0, CB: l2, SkipIfZero: true,
		})
	}
	return steps
}

// patAllGatherPlan: every PE plants its own block at its adjusted
// offset; in round k PE v pulls from peer (v+2^k) mod n the run of
// min(2^k, n−2^k) blocks starting at the peer's own — exactly the
// blocks v is missing next. Writer and read runs of a round are
// disjoint (the peer writes blocks 2^k further along, and
// 2^k + run ≤ n), so no barrier-free hazard exists within a round.
func patAllGatherPlan(n int) *Plan {
	span := "allgather_pat"
	p := &Plan{
		Collective: CollAllGather, Algorithm: AlgoPAT, Span: span, NPEs: n,
		Stage: BufTotal, Adj: AdjVector, Chunked: true, Depth: CeilLog2(n),
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
	for k := 0; (1 << k) < n; k++ {
		d := 1 << k
		l := d
		if n-d < l {
			l = n - d
		}
		rd := Round{Name: span + ".round", Idx: k}
		for v := 0; v < n; v++ {
			rd.Steps = patRunSteps(rd.Steps, v, (v+d)%n, v+d, l, n, BufStage)
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

// patReduceScatterPlan is the allgather run time-reversed: rounds run
// k = K−1 … 0 and PE v pulls the run of min(2^k, n−2^k) blocks starting
// at its own from peer (v−2^k) mod n, folding them into its staged
// copy. Reversing every allgather delivery turns "block b reaches every
// PE" into "every contribution to block b reaches PE b", so after the
// last round each PE's own block is fully reduced; the contribution
// sets merged at each fold are disjoint for the same reason the forward
// runs never overlap.
func patReduceScatterPlan(n int) *Plan {
	span := "reduce_scatter_pat"
	p := &Plan{
		Collective: CollReduceScatter, Algorithm: AlgoPAT, Span: span, NPEs: n,
		Stage: BufTotal, Scratch: BufTotal, Adj: AdjChunks, UsesOp: true,
		Chunked: true, Depth: CeilLog2(n),
	}
	pro := Round{Idx: -1}
	for v := 0; v < n; v++ {
		pro.Steps = append(pro.Steps, Step{
			Kind: StepCopy, Actor: v, Peer: -1,
			Dst: Loc{Buf: BufStage}, Src: Loc{Buf: BufSrc},
			Count: CountAll,
		})
	}
	pro.Steps = append(pro.Steps, barrierStep())
	p.Rounds = append(p.Rounds, pro)
	idx := 0
	for k := CeilLog2(n) - 1; k >= 0; k-- {
		d := 1 << k
		if d >= n {
			continue
		}
		l := d
		if n-d < l {
			l = n - d
		}
		rd := Round{Name: span + ".round", Idx: idx}
		idx++
		for v := 0; v < n; v++ {
			peer := (v - d + n) % n
			pre := len(rd.Steps)
			rd.Steps = patRunSteps(rd.Steps, v, peer, v, l, n, BufScratch)
			// Fold each landed piece into the staged partial.
			for _, g := range rd.Steps[pre:] {
				rd.Steps = append(rd.Steps, Step{
					Kind: StepCombine, Actor: v, Peer: -1,
					Dst:   Loc{Buf: BufStage, Off: OffAdj, V: g.CV},
					Src:   Loc{Buf: BufScratch, Off: OffAdj, V: g.CV},
					Count: CountRun, CV: g.CV, CB: g.CB,
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
			Dst:   Loc{Buf: BufDest},
			Src:   Loc{Buf: BufStage, Off: OffAdj, V: v},
			Count: CountBlock, CV: v,
		})
	}
	p.Rounds = append(p.Rounds, epi)
	return p
}

func init() {
	RegisterPlanner(&Planner{
		Name:        AlgoPAT,
		Collectives: []Collective{CollAllGather, CollReduceScatter},
		Compile:     unsegmented(compilePAT),
	})
}
