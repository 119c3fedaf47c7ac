package core

import (
	"fmt"
	"sync"
	"testing"

	"xbgas/internal/xbrtime"
)

// Tests for the bandwidth-optimal planner family (planners_bw.go):
// value conformance for allreduce/allgather/reduce-scatter across
// power-of-two and non-power-of-two PE counts, rooted ring
// broadcast/reduce at every root, the all-types matrix at the
// non-power-of-two counts, and the differential check that every
// executed transfer matches the plan's own Transfers projection.

// bwCounts are the PE counts the family is exercised at: the
// power-of-two fast paths, every non-power-of-two fallback shape up to
// 8, and the paper's 12-core environment.
var bwCounts = []int{1, 2, 3, 4, 5, 6, 7, 8, 12}

func TestBandwidthOptimalAllReduceValues(t *testing.T) {
	dt := xbrtime.TypeInt64
	for _, n := range bwCounts {
		for _, algo := range []Algorithm{AlgoRing, AlgoRabenseifner, AlgoBinomial, AlgoAuto} {
			for _, nelems := range []int{1, 7, 37, 4096} {
				n, algo, nelems := n, algo, nelems
				t.Run(fmt.Sprintf("%s/n%d/e%d", algo, n, nelems), func(t *testing.T) {
					runSPMD(t, n, func(pe *xbrtime.PE) error {
						me := pe.MyPE()
						dest, err := pe.Malloc(uint64(nelems) * 8)
						if err != nil {
							return err
						}
						src, err := pe.Malloc(uint64(nelems) * 8)
						if err != nil {
							return err
						}
						for j := 0; j < nelems; j++ {
							pe.Poke(dt, src+uint64(j)*8, uint64(me+j+1))
						}
						if err := AllReduceWith(pe, algo, dt, OpSum, dest, src, nelems, 1); err != nil {
							return err
						}
						for j := 0; j < nelems; j++ {
							want := int64(n*(j+1) + n*(n-1)/2)
							if got := int64(pe.Peek(dt, dest+uint64(j)*8)); got != want {
								t.Errorf("%s n=%d: PE %d elem %d = %d, want %d",
									algo, n, me, j, got, want)
								return nil
							}
						}
						if err := pe.Free(dest); err != nil {
							return err
						}
						return pe.Free(src)
					})
				})
			}
		}
	}
}

func TestBandwidthOptimalAllGatherValues(t *testing.T) {
	dt := xbrtime.TypeInt64
	for _, n := range bwCounts {
		for _, algo := range []Algorithm{AlgoRing, AlgoRabenseifner, AlgoBinomial, AlgoAuto} {
			for _, per := range []int{1, 3, 512} {
				n, algo, per := n, algo, per
				t.Run(fmt.Sprintf("%s/n%d/per%d", algo, n, per), func(t *testing.T) {
					// Uneven blocks: logical rank l contributes per+l%2
					// elements.
					msgs := make([]int, n)
					disp := make([]int, n)
					nelems := 0
					for l := 0; l < n; l++ {
						msgs[l] = per + l%2
						disp[l] = nelems
						nelems += msgs[l]
					}
					runSPMD(t, n, func(pe *xbrtime.PE) error {
						me := pe.MyPE()
						dest, err := pe.Malloc(uint64(nelems) * 8)
						if err != nil {
							return err
						}
						// Symmetric heap: every PE must allocate the
						// same sizes, so size src for the largest block.
						src, err := pe.Malloc(uint64(per+1) * 8)
						if err != nil {
							return err
						}
						for j := 0; j < msgs[me]; j++ {
							pe.Poke(dt, src+uint64(j)*8, uint64(1000*me+j+1))
						}
						if err := AllGatherWith(pe, algo, dt, dest, src, msgs, disp, nelems); err != nil {
							return err
						}
						for l := 0; l < n; l++ {
							for j := 0; j < msgs[l]; j++ {
								want := int64(1000*l + j + 1)
								at := dest + uint64(disp[l]+j)*8
								if got := int64(pe.Peek(dt, at)); got != want {
									t.Errorf("%s n=%d: PE %d block %d elem %d = %d, want %d",
										algo, n, me, l, j, got, want)
									return nil
								}
							}
						}
						if err := pe.Free(dest); err != nil {
							return err
						}
						return pe.Free(src)
					})
				})
			}
		}
	}
}

func TestReduceScatterValues(t *testing.T) {
	dt := xbrtime.TypeInt64
	for _, n := range bwCounts {
		for _, algo := range []Algorithm{AlgoRing, AlgoRabenseifner, AlgoAuto} {
			for _, nelems := range []int{1, 7, 37, 4101} {
				n, algo, nelems := n, algo, nelems
				t.Run(fmt.Sprintf("%s/n%d/e%d", algo, n, nelems), func(t *testing.T) {
					runSPMD(t, n, func(pe *xbrtime.PE) error {
						me := pe.MyPE()
						dest, err := pe.Malloc(uint64(nelems) * 8)
						if err != nil {
							return err
						}
						src, err := pe.Malloc(uint64(nelems) * 8)
						if err != nil {
							return err
						}
						for j := 0; j < nelems; j++ {
							pe.Poke(dt, src+uint64(j)*8, uint64(me+j+1))
						}
						if err := ReduceScatterWith(pe, algo, dt, OpSum, dest, src, nelems); err != nil {
							return err
						}
						// PE v owns chunk v of the closed-form equal
						// chunking of nelems.
						per, rem := nelems/n, nelems%n
						off := per*me + min(me, rem)
						cnt := per
						if me < rem {
							cnt++
						}
						for i := 0; i < cnt; i++ {
							j := off + i
							want := int64(n*(j+1) + n*(n-1)/2)
							if got := int64(pe.Peek(dt, dest+uint64(i)*8)); got != want {
								t.Errorf("%s n=%d: PE %d chunk elem %d (global %d) = %d, want %d",
									algo, n, me, i, j, got, want)
								return nil
							}
						}
						if err := pe.Free(dest); err != nil {
							return err
						}
						return pe.Free(src)
					})
				})
			}
		}
	}
}

// TestRingRootedCollectives drives the ring chain broadcast and reduce
// at every root, including a payload large enough to take the
// segmented (flag-pipelined) form.
func TestRingRootedCollectives(t *testing.T) {
	dt := xbrtime.TypeInt64
	for _, n := range []int{2, 3, 5, 8} {
		// 8195 elements = 64 KiB + 24 B: past SegmentMinBytes, so the
		// auto segment selection pipelines the ring.
		for _, nelems := range []int{5, 8195} {
			for root := 0; root < n; root++ {
				n, nelems, root := n, nelems, root
				t.Run(fmt.Sprintf("n%d/e%d/root%d", n, nelems, root), func(t *testing.T) {
					runSPMD(t, n, func(pe *xbrtime.PE) error {
						me := pe.MyPE()
						dest, err := pe.Malloc(uint64(nelems) * 8)
						if err != nil {
							return err
						}
						src, err := pe.Malloc(uint64(nelems) * 8)
						if err != nil {
							return err
						}
						if me == root {
							for j := 0; j < nelems; j++ {
								pe.Poke(dt, src+uint64(j)*8, uint64(j+5))
							}
						}
						if err := BroadcastWith(AlgoRing, pe, dt, dest, src, nelems, 1, root); err != nil {
							return err
						}
						for j := 0; j < nelems; j += 1 + nelems/17 {
							if got := int64(pe.Peek(dt, dest+uint64(j)*8)); got != int64(j+5) {
								t.Errorf("broadcast n=%d root=%d: PE %d elem %d = %d, want %d",
									n, root, me, j, got, j+5)
								return nil
							}
						}
						for j := 0; j < nelems; j++ {
							pe.Poke(dt, src+uint64(j)*8, uint64(me+j))
						}
						if err := ReduceWith(AlgoRing, pe, dt, OpSum, dest, src, nelems, 1, root); err != nil {
							return err
						}
						if me == root {
							for j := 0; j < nelems; j += 1 + nelems/17 {
								want := int64(n*j + n*(n-1)/2)
								if got := int64(pe.Peek(dt, dest+uint64(j)*8)); got != want {
									t.Errorf("reduce n=%d root=%d: elem %d = %d, want %d",
										n, root, j, got, want)
									return nil
								}
							}
						}
						if err := pe.Free(dest); err != nil {
							return err
						}
						return pe.Free(src)
					})
				})
			}
		}
	}
}

// TestBandwidthCollectivesEveryType pushes every Table 1 type through
// allreduce, reduce-scatter, and allgather under both bandwidth-optimal
// planners at the non-power-of-two PE counts (and the paper's 12).
// Values are chosen so every partial result is exactly representable in
// every type, making the checks independent of combine order.
func TestBandwidthCollectivesEveryType(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7, 12} {
		for _, dt := range xbrtime.Types {
			n, dt := n, dt
			t.Run(fmt.Sprintf("n%d/%s", n, dt.Name), func(t *testing.T) {
				nelems := n + 1 // uneven chunks: rem = 1
				w := uint64(dt.Width)
				val := func(p int, op ReduceOp) uint64 {
					if dt.Kind == xbrtime.KindFloat {
						if op == OpProd {
							return dt.FromFloat(2) // products stay powers of two
						}
						return dt.FromFloat(float64(p + 1))
					}
					return dt.Canon(uint64(p + 1))
				}
				for _, algo := range []Algorithm{AlgoRing, AlgoRabenseifner} {
					for _, op := range AllReduceOps() {
						if !op.ValidFor(dt) {
							continue
						}
						algo, op := algo, op
						runSPMD(t, n, func(pe *xbrtime.PE) error {
							me := pe.MyPE()
							dest, err := pe.Malloc(uint64(nelems) * w)
							if err != nil {
								return err
							}
							src, err := pe.Malloc(uint64(nelems) * w)
							if err != nil {
								return err
							}
							mine := val(me, op)
							for j := 0; j < nelems; j++ {
								pe.Poke(dt, src+uint64(j)*w, mine)
							}
							want := Identity(dt, op)
							for p := 0; p < n; p++ {
								if want, err = Combine(dt, op, want, val(p, op)); err != nil {
									return err
								}
							}

							if err := AllReduceWith(pe, algo, dt, op, dest, src, nelems, 1); err != nil {
								return err
							}
							for j := 0; j < nelems; j++ {
								if got := pe.Peek(dt, dest+uint64(j)*w); got != want {
									t.Errorf("%s allreduce %s n=%d: PE %d elem %d = %s, want %s",
										algo, op, n, me, j, dt.FormatValue(got), dt.FormatValue(want))
									return nil
								}
							}

							if err := ReduceScatterWith(pe, algo, dt, op, dest, src, nelems); err != nil {
								return err
							}
							cnt := nelems / n
							if me < nelems%n {
								cnt++
							}
							for i := 0; i < cnt; i++ {
								if got := pe.Peek(dt, dest+uint64(i)*w); got != want {
									t.Errorf("%s reduce_scatter %s n=%d: PE %d elem %d = %s, want %s",
										algo, op, n, me, i, dt.FormatValue(got), dt.FormatValue(want))
									return nil
								}
							}
							if err := pe.Free(dest); err != nil {
								return err
							}
							return pe.Free(src)
						})
					}

					// Allgather: one element per PE, the rank identity.
					algo := algo
					msgs := make([]int, n)
					disp := make([]int, n)
					for l := 0; l < n; l++ {
						msgs[l], disp[l] = 1, l
					}
					runSPMD(t, n, func(pe *xbrtime.PE) error {
						me := pe.MyPE()
						dest, err := pe.Malloc(uint64(n) * w)
						if err != nil {
							return err
						}
						src, err := pe.Malloc(w)
						if err != nil {
							return err
						}
						pe.Poke(dt, src, val(me, OpSum))
						if err := AllGatherWith(pe, algo, dt, dest, src, msgs, disp, n); err != nil {
							return err
						}
						for l := 0; l < n; l++ {
							if got := pe.Peek(dt, dest+uint64(l)*w); got != val(l, OpSum) {
								t.Errorf("%s allgather %s n=%d: PE %d block %d = %s",
									algo, dt.Name, n, me, l, dt.FormatValue(got))
								return nil
							}
						}
						if err := pe.Free(dest); err != nil {
							return err
						}
						return pe.Free(src)
					})
				}
			})
		}
	}
}

// TestBandwidthPlannerTransfersMatchExecution is the differential check
// for the new planners: every remote move the executor performs must
// appear in the plan's own Transfers projection, and vice versa.
// Element counts keep every chunk non-empty so no skip-if-zero step
// hides a scheduled transfer.
func TestBandwidthPlannerTransfersMatchExecution(t *testing.T) {
	type tc struct {
		coll     Collective
		algo     Algorithm
		segments int
	}
	cases := []tc{
		{CollAllReduce, AlgoRing, 1},
		{CollAllGather, AlgoRing, 1},
		{CollReduceScatter, AlgoRing, 1},
		{CollAllReduce, AlgoRabenseifner, 1},
		{CollAllGather, AlgoRabenseifner, 1},
		{CollReduceScatter, AlgoRabenseifner, 1},
		{CollBroadcast, AlgoRing, 1},
		{CollReduce, AlgoRing, 1},
		{CollBroadcast, AlgoRing, 3},
		{CollReduce, AlgoRing, 3},
	}
	for _, c := range cases {
		for _, n := range []int{2, 3, 4, 5, 7, 8, 12} {
			c, n := c, n
			t.Run(fmt.Sprintf("%s/%s/seg%d/n%d", c.coll, c.algo, c.segments, n), func(t *testing.T) {
				p, err := CompilePlanFor(c.coll, c.algo, n, c.segments, Shape{})
				if err != nil {
					t.Fatal(err)
				}
				if c.segments > 1 && p.Segments != c.segments {
					t.Fatalf("%s/%s: wanted a %d-segment plan, got %d", c.coll, c.algo, c.segments, p.Segments)
				}
				want := p.Transfers()
				sortTransfers(want)
				var mu sync.Mutex
				var got []Transfer
				runSPMD(t, n, func(pe *xbrtime.PE) error {
					nelems := 2*n + 3
					if c.segments > 1 {
						nelems = 2*c.segments + 1
					}
					a := ExecArgs{
						DT: xbrtime.TypeInt64, Op: OpSum,
						Nelems: nelems, Stride: 1, Root: 0,
					}
					w := uint64(8)
					var err error // shadow the outer err: closures run on every PE
					var allocs []uint64
					alloc := func(bytes uint64) (uint64, error) {
						ad, err := pe.Malloc(bytes)
						if err != nil {
							return 0, err
						}
						allocs = append(allocs, ad)
						return ad, nil
					}
					if a.Dest, err = alloc(uint64(nelems) * w); err != nil {
						return err
					}
					if a.Src, err = alloc(uint64(nelems) * w); err != nil {
						return err
					}
					if c.coll == CollAllGather {
						a.PeMsgs = make([]int, n)
						a.PeDisp = make([]int, n)
						rest := nelems
						for l := 0; l < n; l++ {
							per := rest / (n - l)
							a.PeMsgs[l] = per
							a.PeDisp[l] = nelems - rest
							rest -= per
						}
					}
					a.OnTransfer = func(round int, s Step, _ int) {
						tr := Transfer{Round: round, Kind: s.Kind, From: s.Actor, To: s.Peer}
						if s.Kind == StepGet {
							tr.From, tr.To = s.Peer, s.Actor
						}
						mu.Lock()
						got = append(got, tr)
						mu.Unlock()
					}
					if err := Execute(pe, p, a); err != nil {
						return err
					}
					if err := pe.Barrier(); err != nil {
						return err
					}
					for _, ad := range allocs {
						if err := pe.Free(ad); err != nil {
							return err
						}
					}
					return nil
				})
				sortTransfers(got)
				if len(got) != len(want) {
					t.Fatalf("executed %d transfers, plan schedules %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("transfer %d: executed %+v, plan %+v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
