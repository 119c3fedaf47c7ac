package core

import (
	"testing"

	"xbgas/internal/xbrtime"
)

func TestAllReduceDeliversEverywhere(t *testing.T) {
	const nPEs = 5
	runSPMD(t, nPEs, func(pe *xbrtime.PE) error {
		dt := xbrtime.TypeInt64
		src, err := pe.Malloc(3 * 8)
		if err != nil {
			return err
		}
		dest, err := pe.Malloc(3 * 8)
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			pe.Poke(dt, src+uint64(i*8), uint64(pe.MyPE()+i))
		}
		if err := AllReduce(pe, dt, OpSum, dest, src, 3, 1); err != nil {
			return err
		}
		// Every PE must hold the sums: sum over p of (p+i).
		for i := 0; i < 3; i++ {
			want := int64(0)
			for p := 0; p < nPEs; p++ {
				want += int64(p + i)
			}
			if got := int64(pe.Peek(dt, dest+uint64(i*8))); got != want {
				t.Errorf("PE %d elem %d = %d, want %d", pe.MyPE(), i, got, want)
			}
		}
		if err := pe.Free(src); err != nil {
			return err
		}
		return pe.Free(dest)
	})
}

func TestAllGatherMatchesCollect(t *testing.T) {
	const nPEs = 4
	msgs := []int{2, 1, 3, 2}
	disp := []int{0, 2, 3, 6}
	total := 8
	runSPMD(t, nPEs, func(pe *xbrtime.PE) error {
		dt := xbrtime.TypeInt32
		w := uint64(dt.Width)
		src, err := pe.Malloc(4 * w)
		if err != nil {
			return err
		}
		dest, err := pe.Malloc(uint64(total) * w)
		if err != nil {
			return err
		}
		for i := 0; i < msgs[pe.MyPE()]; i++ {
			pe.Poke(dt, src+uint64(i)*w, uint64(10*pe.MyPE()+i))
		}
		if err := AllGather(pe, dt, dest, src, msgs, disp, total); err != nil {
			return err
		}
		for p := 0; p < nPEs; p++ {
			for i := 0; i < msgs[p]; i++ {
				want := int64(10*p + i)
				got := int64(pe.Peek(dt, dest+uint64(disp[p]+i)*w))
				if got != want {
					t.Errorf("PE %d slot (%d,%d) = %d, want %d", pe.MyPE(), p, i, got, want)
				}
			}
		}
		if err := pe.Free(src); err != nil {
			return err
		}
		return pe.Free(dest)
	})
}

func TestAlltoallPermutation(t *testing.T) {
	for _, nPEs := range []int{2, 3, 4, 7} {
		nPEs := nPEs
		const nelems = 3
		runSPMD(t, nPEs, func(pe *xbrtime.PE) error {
			dt := xbrtime.TypeInt64
			w := uint64(dt.Width)
			block := uint64(nelems) * w
			src, err := pe.Malloc(uint64(nPEs) * block)
			if err != nil {
				return err
			}
			dest, err := pe.Malloc(uint64(nPEs) * block)
			if err != nil {
				return err
			}
			// Block j of PE i holds value i*1000 + j*10 + elem.
			for j := 0; j < nPEs; j++ {
				for e := 0; e < nelems; e++ {
					v := int64(pe.MyPE()*1000 + j*10 + e)
					pe.Poke(dt, src+uint64(j)*block+uint64(e)*w, uint64(v))
				}
			}
			if err := Alltoall(pe, dt, dest, src, nelems); err != nil {
				return err
			}
			// dest block i must hold PE i's block for me.
			me := pe.MyPE()
			for i := 0; i < nPEs; i++ {
				for e := 0; e < nelems; e++ {
					want := int64(i*1000 + me*10 + e)
					got := int64(pe.Peek(dt, dest+uint64(i)*block+uint64(e)*w))
					if got != want {
						t.Errorf("n=%d PE %d dest block %d elem %d = %d, want %d",
							nPEs, me, i, e, got, want)
					}
				}
			}
			if err := pe.Free(src); err != nil {
				return err
			}
			return pe.Free(dest)
		})
	}
}

func TestAlltoallValidation(t *testing.T) {
	runSPMD(t, 2, func(pe *xbrtime.PE) error {
		if pe.MyPE() != 0 {
			return nil
		}
		if err := Alltoall(pe, xbrtime.DType{Width: 3}, 0, 0, 1); err == nil {
			t.Error("invalid dtype must fail")
		}
		if err := Alltoall(pe, xbrtime.TypeInt, 0, 0, -1); err == nil {
			t.Error("negative nelems must fail")
		}
		return nil
	})
}

func TestTeamBroadcastSubset(t *testing.T) {
	const nPEs = 6
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: nPEs})
	if err != nil {
		t.Fatal(err)
	}
	team, err := rt.NewTeam([]int{1, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Run(func(pe *xbrtime.PE) error {
		dt := xbrtime.TypeInt64
		// Everyone allocates symmetrically (including non-members).
		buf, err := pe.Malloc(8)
		if err != nil {
			return err
		}
		pe.Poke(dt, buf, 0xAA)
		if err := pe.Barrier(); err != nil {
			return err
		}
		if !team.Contains(pe.MyPE()) {
			return pe.Barrier() // non-members sit out the team phase
		}
		src, err := pe.PrivateAlloc(8)
		if err != nil {
			return err
		}
		// Team rank 1 is global PE 3: broadcast from it.
		if r, _ := team.Rank(pe); r == 1 {
			pe.Poke(dt, src, 777)
		}
		if err := TeamBroadcast(pe, team, dt, buf, src, 1, 1, 1); err != nil {
			return err
		}
		if got := pe.Peek(dt, buf); got != 777 {
			t.Errorf("team member PE %d got %d", pe.MyPE(), got)
		}
		return pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Non-members' buffers must be untouched.
	for _, p := range []int{0, 2} {
		pe := rt.PE(p)
		if got := pe.Peek(xbrtime.TypeInt64, xbrtime.SharedBase); got != 0xAA {
			t.Errorf("non-member PE %d buffer clobbered: %#x", p, got)
		}
	}
}

func TestTeamReduceSubset(t *testing.T) {
	const nPEs = 5
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: nPEs})
	if err != nil {
		t.Fatal(err)
	}
	team, err := rt.NewTeam([]int{0, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Run(func(pe *xbrtime.PE) error {
		dt := xbrtime.TypeInt64
		src, err := pe.Malloc(8 * 2)
		if err != nil {
			return err
		}
		work, err := pe.Malloc(8 * 2)
		if err != nil {
			return err
		}
		dest, err := pe.PrivateAlloc(8 * 2)
		if err != nil {
			return err
		}
		pe.Poke(dt, src, uint64(pe.MyPE()+1))
		pe.Poke(dt, src+8, uint64(10*(pe.MyPE()+1)))
		if err := pe.Barrier(); err != nil {
			return err
		}
		if !team.Contains(pe.MyPE()) {
			return nil
		}
		if err := TeamReduce(pe, team, dt, OpSum, dest, src, work, 2, 1, 0); err != nil {
			return err
		}
		if pe.MyPE() == 0 { // team rank 0
			// Members 0, 2, 4 contribute 1+3+5 = 9 and 10+30+50 = 90.
			if got := int64(pe.Peek(dt, dest)); got != 9 {
				t.Errorf("team reduce elem 0 = %d, want 9", got)
			}
			if got := int64(pe.Peek(dt, dest+8)); got != 90 {
				t.Errorf("team reduce elem 1 = %d, want 90", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTeamValidation(t *testing.T) {
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewTeam(nil); err == nil {
		t.Error("empty team must fail")
	}
	if _, err := rt.NewTeam([]int{0, 0}); err == nil {
		t.Error("duplicate member must fail")
	}
	if _, err := rt.NewTeam([]int{0, 9}); err == nil {
		t.Error("out-of-range member must fail")
	}
	team, err := rt.NewTeam([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if team.Size() != 2 || team.Member(1) != 2 || !team.Contains(1) || team.Contains(0) {
		t.Errorf("team metadata wrong: %+v", team)
	}
	err = rt.Run(func(pe *xbrtime.PE) error {
		if pe.MyPE() == 0 {
			if err := pe.TeamBarrier(team); err == nil {
				t.Error("non-member TeamBarrier must fail")
			}
			if err := TeamBroadcast(pe, team, xbrtime.TypeInt, 0, 0, 1, 1, 0); err == nil {
				t.Error("non-member TeamBroadcast must fail")
			}
		}
		if pe.MyPE() == 1 {
			if err := TeamBroadcast(pe, team, xbrtime.TypeInt, 0, 0, 1, 1, 5); err == nil {
				t.Error("bad team root must fail")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorldTeamEqualsBarrier(t *testing.T) {
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: 3})
	if err != nil {
		t.Fatal(err)
	}
	world := rt.WorldTeam()
	if world.Size() != 3 {
		t.Fatalf("world team size = %d", world.Size())
	}
	err = rt.Run(func(pe *xbrtime.PE) error {
		buf, err := pe.Malloc(8)
		if err != nil {
			return err
		}
		src, err := pe.PrivateAlloc(8)
		if err != nil {
			return err
		}
		if pe.MyPE() == 2 {
			pe.Poke(xbrtime.TypeInt64, src, 31337)
		}
		if err := TeamBroadcast(pe, world, xbrtime.TypeInt64, buf, src, 1, 1, 2); err != nil {
			return err
		}
		if got := pe.Peek(xbrtime.TypeInt64, buf); got != 31337 {
			t.Errorf("PE %d world-team broadcast got %d", pe.MyPE(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastScatterAllgatherCorrectness(t *testing.T) {
	for _, nPEs := range []int{2, 3, 5, 8} {
		for _, root := range []int{0, nPEs - 1} {
			for _, nelems := range []int{1, 7, 64, 100} {
				nPEs, root, nelems := nPEs, root, nelems
				runSPMD(t, nPEs, func(pe *xbrtime.PE) error {
					dt := xbrtime.TypeInt64
					w := uint64(dt.Width)
					dest, err := pe.Malloc(uint64(nelems+1) * w)
					if err != nil {
						return err
					}
					src, err := pe.PrivateAlloc(uint64(nelems+1) * w)
					if err != nil {
						return err
					}
					if pe.MyPE() == root {
						for i := 0; i < nelems; i++ {
							pe.Poke(dt, src+uint64(i)*w, uint64(3000+i))
						}
					}
					if err := BroadcastScatterAllgather(pe, dt, dest, src, nelems, root); err != nil {
						return err
					}
					for i := 0; i < nelems; i++ {
						if got := pe.Peek(dt, dest+uint64(i)*w); got != uint64(3000+i) {
							t.Errorf("n=%d root=%d nelems=%d PE %d elem %d = %d",
								nPEs, root, nelems, pe.MyPE(), i, got)
						}
					}
					return pe.Free(dest)
				})
			}
		}
	}
}

func TestAutoSelectsLargeMessageAlgorithm(t *testing.T) {
	// Scatter+all-gather is explicit opt-in: its advantage assumes
	// bisection bandwidth the default fabric does not have, so auto
	// never selects it whatever the size.
	big := LargeMessageBytes / 8
	if got := AlgoAuto.SelectFor(CollBroadcast, 8, big, 8, Shape{}); got == AlgoScatterAllgather {
		t.Errorf("auto(large broadcast) picked the opt-in algorithm %s", got)
	}
	if got := AlgoAuto.SelectFor(CollBroadcast, 8, 16, 8, Shape{}); got != AlgoBinomial {
		t.Errorf("auto(small) = %s", got)
	}
	// Large allreduce must leave the tree for a bandwidth-optimal
	// planner.
	if got := AlgoAuto.SelectFor(CollAllReduce, 8, 1<<17, 8, Shape{}); got != AlgoRabenseifner && got != AlgoRing {
		t.Errorf("auto(1MiB allreduce) = %s", got)
	}
	if got := AlgoScatterAllgather.SelectFor(CollBroadcast, 8, big, 8, Shape{}); got != AlgoScatterAllgather {
		t.Errorf("explicit choice overridden: %s", got)
	}
	// Strided large broadcasts through the explicit large-message
	// dispatch must fall back to the tree.
	runSPMD(t, 4, func(pe *xbrtime.PE) error {
		dt := xbrtime.TypeInt64
		n := LargeMessageBytes / 8
		dest, err := pe.Malloc(uint64(2*n+1) * 8)
		if err != nil {
			return err
		}
		src, err := pe.PrivateAlloc(uint64(2*n+1) * 8)
		if err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			pe.Poke(dt, src, 5)
			pe.Poke(dt, src+uint64(2*(n-1))*8, 9)
		}
		if err := BroadcastWith(AlgoScatterAllgather, pe, dt, dest, src, n, 2, 0); err != nil {
			return err
		}
		if pe.Peek(dt, dest) != 5 || pe.Peek(dt, dest+uint64(2*(n-1))*8) != 9 {
			t.Errorf("PE %d strided large broadcast corrupted", pe.MyPE())
		}
		return pe.Free(dest)
	})
}
