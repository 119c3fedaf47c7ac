package core

import (
	"fmt"

	"xbgas/internal/xbrtime"
)

// Team collectives: the binomial-tree algorithms of §4 restricted to a
// subset of PEs — the "integration of collective functionality between
// a subset of PEs" of the paper's future work (§7). They execute the
// same compiled plans as the world collectives; the executor maps team
// rank in place of logical rank, runs the team's own barrier in place
// of the world barrier, and routes put/get targets through Team.Member.
// Non-members must simply not call (they are never synchronised
// against).
//
// Unlike the world collectives, team reductions cannot allocate their
// symmetric staging buffer internally: a symmetric allocation must be
// performed by every PE to stay symmetric, but only members execute a
// team collective. Following OpenSHMEM's pWrk convention, TeamReduce
// therefore takes an explicit caller-provided symmetric workspace.

// teamValidate checks the common team-collective contract.
func teamValidate(pe *xbrtime.PE, t *xbrtime.Team, dt xbrtime.DType, nelems, stride, root int) error {
	if _, ok := t.Rank(pe); !ok {
		return fmt.Errorf("core: PE %d is not a member of the team", pe.MyPE())
	}
	if !dt.Valid() {
		return fmt.Errorf("core: invalid data type %+v", dt)
	}
	if nelems < 0 {
		return fmt.Errorf("core: negative element count %d", nelems)
	}
	if stride < 1 {
		return fmt.Errorf("core: stride %d; must be >= 1", stride)
	}
	if root < 0 || root >= t.Size() {
		return fmt.Errorf("core: team root %d outside 0..%d", root, t.Size()-1)
	}
	return nil
}

// TeamBroadcast distributes nelems elements from src on the member
// with team rank root to dest on every team member (Algorithm 1 over
// the team). dest must be a symmetric address.
func TeamBroadcast(pe *xbrtime.PE, t *xbrtime.Team, dt xbrtime.DType, dest, src uint64, nelems, stride, root int) error {
	if err := teamValidate(pe, t, dt, nelems, stride, root); err != nil {
		return err
	}
	p, err := CompilePlanFor(CollBroadcast, AlgoBinomial, t.Size(), 1, Shape{})
	if err != nil {
		return err
	}
	cs := pe.StartCollective("team_broadcast", "", root, nelems)
	defer pe.FinishCollective(cs)
	return Execute(pe, p, ExecArgs{
		DT: dt, Dest: dest, Src: src,
		Nelems: nelems, Stride: stride, Root: root,
		Team: t,
	})
}

// TeamReduce combines nelems elements from src on every team member
// with op and delivers the result to dest on the member with team rank
// root (Algorithm 2 over the team). src and work must be symmetric
// addresses; work is the caller-provided staging buffer (the pWrk
// analogue) and must span at least ((nelems-1)*stride+1) elements. work
// must not overlap src or dest. The executor stages through work
// instead of allocating (and never frees it).
func TeamReduce(pe *xbrtime.PE, t *xbrtime.Team, dt xbrtime.DType, op ReduceOp, dest, src, work uint64, nelems, stride, root int) error {
	if err := teamValidate(pe, t, dt, nelems, stride, root); err != nil {
		return err
	}
	if _, err := Combine(dt, op, 0, 0); err != nil {
		return err
	}
	p, err := CompilePlanFor(CollReduce, AlgoBinomial, t.Size(), 1, Shape{})
	if err != nil {
		return err
	}
	cs := pe.StartCollective("team_reduce", "", root, nelems)
	defer pe.FinishCollective(cs)
	return Execute(pe, p, ExecArgs{
		DT: dt, Op: op, Dest: dest, Src: src,
		Nelems: nelems, Stride: stride, Root: root,
		Stage: work, Team: t,
	})
}
