package core

import (
	"fmt"

	"xbgas/internal/xbrtime"
)

// This file implements the collective operations the paper lists as
// future work (§7): "support for further collective operations
// including personalized all-to-all communication as well as explicit
// reduction-to-all and gather-to-all calls".

// AllReduce combines nelems elements from src on every PE with op and
// delivers the result to dest on every PE: the explicit
// reduction-to-all call of §7. The algorithm is auto-selected from the
// calibrated cost model: small payloads compose the reduce get-tree
// with the broadcast put-tree over one staging buffer (see
// binomialAllReducePlan), large ones land on the bandwidth-optimal
// rabenseifner or ring planner. src must be symmetric; dest must be
// symmetric as well since the distribution phase writes it on every
// PE.
//
//xbgas:typed reduce c=allreduce
func AllReduce(pe *xbrtime.PE, dt xbrtime.DType, op ReduceOp, dest, src uint64, nelems, stride int) error {
	return AllReduceWith(pe, AlgoAuto, dt, op, dest, src, nelems, stride)
}

// ReduceScatter combines nelems elements from src on every PE with op
// and scatters the result: PE with logical rank v receives chunk v of
// the reduced vector — ⌊nelems/n⌋ + (v < nelems mod n) elements, the
// same closed-form equal chunking the large-message broadcast uses —
// at dest. Both buffers must be symmetric; the collective is rootless
// and contiguous (stride 1).
//
//xbgas:typed reduce c=reduce_scatter
func ReduceScatter(pe *xbrtime.PE, dt xbrtime.DType, op ReduceOp, dest, src uint64, nelems int) error {
	return ReduceScatterWith(pe, AlgoAuto, dt, op, dest, src, nelems)
}

// AllGather concatenates every PE's contribution (peMsgs[l] elements at
// src on logical rank l, landing at element offset peDisp[l]) into dest
// on every PE: the gather-to-all call of §7 and the analogue of
// OpenSHMEM's collect. The algorithm is auto-selected from the
// calibrated cost model: small payloads compose the gather get-tree
// with a full-payload broadcast put-tree over one staging buffer (see
// binomialAllGatherPlan), large ones land on the ring or
// recursive-doubling planner. dest must be symmetric.
//
//xbgas:typed vector c=allgather
func AllGather(pe *xbrtime.PE, dt xbrtime.DType, dest, src uint64, peMsgs, peDisp []int, nelems int) error {
	return AllGatherWith(pe, AlgoAuto, dt, dest, src, peMsgs, peDisp, nelems)
}

// Alltoall performs personalized all-to-all communication (§7): every
// PE sends a distinct block of nelems elements to every PE. Block j of
// src on PE i (elements [j*nelems, (j+1)*nelems)) arrives as block i of
// dest on PE j. Both buffers must be symmetric and hold
// nelems*NumPEs() elements.
//
// The implementation is the one-sided direct exchange natural to xBGAS
// (see compileDirect): each PE deposits its blocks into the peers' dest
// buffers with non-blocking puts, overlapping all N-1 transfers, and a
// barrier closes the exchange. The executor waits on and returns every
// issued handle whether the round succeeds or fails, so the pooled
// handle slice can never leak.
//
//xbgas:typed rootless
func Alltoall(pe *xbrtime.PE, dt xbrtime.DType, dest, src uint64, nelems int) error {
	if !dt.Valid() {
		return fmt.Errorf("core: invalid data type %+v", dt)
	}
	if nelems < 0 {
		return fmt.Errorf("core: negative element count %d", nelems)
	}
	n := pe.NumPEs()
	p, err := CompilePlanFor(CollAlltoall, AlgoDirect, n, 1, Shape{})
	if err != nil {
		return err
	}
	// Rootless: the collective span carries -1 in the root slot, and the
	// plan executes with virtual rank == logical rank (root 0).
	cs := pe.StartCollective(p.Span, p.Label(), -1, nelems*n)
	defer pe.FinishCollective(cs)
	return Execute(pe, p, ExecArgs{
		DT: dt, Dest: dest, Src: src,
		Nelems: nelems, Stride: 1, Root: 0,
	})
}
