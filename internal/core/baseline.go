package core

import (
	"xbgas/internal/xbrtime"
)

// Linear (flat) collectives: the root communicates with every other PE
// directly, O(N) rounds of traffic through one node. They are the
// baseline for the paper's §4.1 observation that the best algorithm
// depends on the call's arguments, and the ablation benchmarks compare
// them against the binomial tree. Each entry point executes the cached
// linear plan (see linearBroadcastPlan and friends).

// BroadcastLinear is a flat broadcast: the root puts to each PE in turn.
func BroadcastLinear(pe *xbrtime.PE, dt xbrtime.DType, dest, src uint64, nelems, stride, root int) error {
	return dispatch(pe, CollBroadcast, AlgoLinear, ExecArgs{
		DT: dt, Dest: dest, Src: src,
		Nelems: nelems, Stride: stride, Root: root,
	})
}

// ReduceLinear is a flat reduction: the root gets every PE's staged
// contribution and folds it locally.
func ReduceLinear(pe *xbrtime.PE, dt xbrtime.DType, op ReduceOp, dest, src uint64, nelems, stride, root int) error {
	return dispatch(pe, CollReduce, AlgoLinear, ExecArgs{
		DT: dt, Op: op, Dest: dest, Src: src,
		Nelems: nelems, Stride: stride, Root: root,
	})
}

// ScatterLinear is a flat scatter: the root puts each PE's block
// directly to its dest.
func ScatterLinear(pe *xbrtime.PE, dt xbrtime.DType, dest, src uint64, peMsgs, peDisp []int, nelems, root int) error {
	return dispatch(pe, CollScatter, AlgoLinear, ExecArgs{
		DT: dt, Dest: dest, Src: src,
		Nelems: nelems, Stride: 1, Root: root,
		PeMsgs: peMsgs, PeDisp: peDisp,
	})
}

// GatherLinear is a flat gather: the root gets each PE's block from a
// symmetric staging buffer.
func GatherLinear(pe *xbrtime.PE, dt xbrtime.DType, dest, src uint64, peMsgs, peDisp []int, nelems, root int) error {
	return dispatch(pe, CollGather, AlgoLinear, ExecArgs{
		DT: dt, Dest: dest, Src: src,
		Nelems: nelems, Stride: 1, Root: root,
		PeMsgs: peMsgs, PeDisp: peDisp,
	})
}
