package core

import (
	"sort"
	"sync"
	"testing"

	"xbgas/internal/xbrtime"
)

// ---------------------------------------------------------------------
// Differential test: for every registered (collective, algorithm) pair,
// every PE count 1..16 (powers of two and not), and every root, the
// transfer set the executor actually issues must equal the analytic
// schedule projected from the same plan (Plan.Transfers). The executor
// reports its transfers through the ExecArgs.OnTransfer hook, so this
// compares the wire against the IR with no tracing middleman.
// ---------------------------------------------------------------------

func sortTransfers(ts []Transfer) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
}

// diffArgs builds per-PE buffers and arguments for one differential
// case. Sizes are chosen so no skip-if-zero step fires: vector
// collectives use one element per PE, the chunked broadcast moves n
// elements (one per chunk).
func diffArgs(pe *xbrtime.PE, coll Collective, n, root int) (ExecArgs, []uint64, error) {
	var allocs []uint64
	alloc := func(bytes uint64) (uint64, error) {
		a, err := pe.Malloc(bytes)
		if err != nil {
			return 0, err
		}
		allocs = append(allocs, a)
		return a, nil
	}
	w := uint64(8)
	a := ExecArgs{DT: xbrtime.TypeInt64, Op: OpSum, Stride: 1, Root: root}
	var err error
	switch coll {
	case CollBroadcast, CollReduce, CollAllReduce:
		a.Nelems = n // ≥ 1 per chunk for scatter-allgather
		if a.Dest, err = alloc(uint64(n) * w); err != nil {
			return a, allocs, err
		}
		if a.Src, err = alloc(uint64(n) * w); err != nil {
			return a, allocs, err
		}
	case CollScatter, CollGather, CollAllGather:
		a.Nelems = n
		a.PeMsgs = make([]int, n)
		a.PeDisp = make([]int, n)
		for i := range a.PeMsgs {
			a.PeMsgs[i] = 1
			a.PeDisp[i] = i
		}
		if a.Dest, err = alloc(uint64(n) * w); err != nil {
			return a, allocs, err
		}
		if a.Src, err = alloc(uint64(n) * w); err != nil {
			return a, allocs, err
		}
	case CollAlltoall:
		a.Nelems = 1
		if a.Dest, err = alloc(uint64(n) * w); err != nil {
			return a, allocs, err
		}
		if a.Src, err = alloc(uint64(n) * w); err != nil {
			return a, allocs, err
		}
	}
	return a, allocs, nil
}

func TestExecutionMatchesSchedule(t *testing.T) {
	cases := []struct {
		coll Collective
		algo Algorithm
	}{
		{CollBroadcast, AlgoBinomial},
		{CollBroadcast, AlgoLinear},
		{CollBroadcast, AlgoScatterAllgather},
		{CollReduce, AlgoBinomial},
		{CollReduce, AlgoLinear},
		{CollScatter, AlgoBinomial},
		{CollScatter, AlgoLinear},
		{CollGather, AlgoBinomial},
		{CollGather, AlgoLinear},
		{CollAllReduce, AlgoBinomial},
		{CollAllGather, AlgoBinomial},
		{CollAlltoall, AlgoDirect},
	}
	for _, tc := range cases {
		for n := 1; n <= 16; n++ {
			p, err := CompilePlanFor(tc.coll, tc.algo, n, 1, Shape{})
			if err != nil {
				t.Fatalf("%s/%s n=%d: %v", tc.coll, tc.algo, n, err)
			}
			want := p.Transfers()
			sortTransfers(want)

			roots := []int{0}
			rooted := tc.coll == CollBroadcast || tc.coll == CollReduce ||
				tc.coll == CollScatter || tc.coll == CollGather
			if rooted {
				roots = roots[:0]
				for r := 0; r < n; r++ {
					roots = append(roots, r)
				}
			}

			var mu sync.Mutex
			got := make([][]Transfer, len(roots))
			rt, err := xbrtime.New(xbrtime.Config{NumPEs: n})
			if err != nil {
				t.Fatal(err)
			}
			err = rt.Run(func(pe *xbrtime.PE) error {
				for ri, root := range roots {
					a, allocs, err := diffArgs(pe, tc.coll, n, root)
					if err != nil {
						return err
					}
					ri := ri
					a.OnTransfer = func(round int, s Step, _ int) {
						tr := Transfer{Round: round, Kind: s.Kind, From: s.Actor, To: s.Peer}
						if s.Kind == StepGet {
							tr.From, tr.To = s.Peer, s.Actor
						}
						mu.Lock()
						got[ri] = append(got[ri], tr)
						mu.Unlock()
					}
					if err := Execute(pe, p, a); err != nil {
						return err
					}
					if err := pe.Barrier(); err != nil {
						return err
					}
					for _, addr := range allocs {
						if err := pe.Free(addr); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s/%s n=%d: %v", tc.coll, tc.algo, n, err)
			}
			for ri, root := range roots {
				g := got[ri]
				sortTransfers(g)
				if len(g) != len(want) {
					t.Fatalf("%s/%s n=%d root=%d: executed %d transfers, schedule has %d:\n%v\nvs\n%v",
						tc.coll, tc.algo, n, root, len(g), len(want), g, want)
				}
				for i := range want {
					if g[i] != want[i] {
						t.Errorf("%s/%s n=%d root=%d transfer %d: executed %+v, schedule %+v",
							tc.coll, tc.algo, n, root, i, g[i], want[i])
					}
				}
			}
		}
	}
}

// ---------------------------------------------------------------------
// Plan-cache properties.
// ---------------------------------------------------------------------

// TestPlanCacheReuse pins the caching contract of CompilePlanFor: one
// plan per (collective, algorithm, nPEs, segments, shape) key, shared
// by every call — and because plans live in virtual-rank space, every
// root reuses the same plan object (the root enters only at execution
// time). A segmented request to a planner with no segmented form gets
// the unsegmented plan itself, and only a Shaped planner compiles a
// distinct plan per grouping.
func TestPlanCacheReuse(t *testing.T) {
	type key struct {
		coll Collective
		algo Algorithm
		n    int
		seg  int
		sh   Shape
	}
	bcast8 := key{CollBroadcast, AlgoBinomial, 8, 1, Shape{}}
	cases := []struct {
		name string
		a, b key
		same bool
		// wantSeg, when nonzero, is plan a's Segments.
		wantSeg int
	}{
		{"same key", bcast8, bcast8, true, 0},
		{"different nPEs", bcast8, key{CollBroadcast, AlgoBinomial, 9, 1, Shape{}}, false, 0},
		{"different algorithm", bcast8, key{CollBroadcast, AlgoLinear, 8, 1, Shape{}}, false, 0},
		{"different collective", bcast8, key{CollReduce, AlgoBinomial, 8, 1, Shape{}}, false, 0},
		{"ring allreduce has no segmented form",
			key{CollAllReduce, AlgoRing, 8, 4, Shape{}}, key{CollAllReduce, AlgoRing, 8, 1, Shape{}}, true, 0},
		{"rabenseifner allreduce has no segmented form",
			key{CollAllReduce, AlgoRabenseifner, 8, 4, Shape{}}, key{CollAllReduce, AlgoRabenseifner, 8, 1, Shape{}}, true, 0},
		{"hierarchical compiles per grouping",
			key{CollAllReduce, AlgoHier, 16, 1, Shape{PerNode: 4}}, key{CollAllReduce, AlgoHier, 16, 1, Shape{}}, false, 0},
		{"binomial shares its flat plan across groupings",
			key{CollAllReduce, AlgoBinomial, 16, 1, Shape{PerNode: 4}}, key{CollAllReduce, AlgoBinomial, 16, 1, Shape{}}, true, 0},
		{"binomial broadcast segments",
			key{CollBroadcast, AlgoBinomial, 8, 4, Shape{}}, bcast8, false, 4},
	}
	compile := func(k key) *Plan {
		t.Helper()
		p, err := CompilePlanFor(k.coll, k.algo, k.n, k.seg, k.sh)
		if err != nil {
			t.Fatalf("%+v: %v", k, err)
		}
		return p
	}
	for _, tc := range cases {
		pa, pb := compile(tc.a), compile(tc.b)
		if (pa == pb) != tc.same {
			t.Errorf("%s: %+v and %+v share a plan = %v, want %v", tc.name, tc.a, tc.b, pa == pb, tc.same)
		}
		if tc.wantSeg != 0 && pa.Segments != tc.wantSeg {
			t.Errorf("%s: Segments = %d, want %d", tc.name, pa.Segments, tc.wantSeg)
		}
	}
}

// TestPlanCacheConcurrent compiles the same shape from many goroutines
// and requires one canonical winner — the insert must be race-safe and
// first-wins so concurrently obtained plans are pointer-identical.
func TestPlanCacheConcurrent(t *testing.T) {
	const workers = 16
	plans := make([]*Plan, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := CompilePlanFor(CollGather, AlgoBinomial, 13, 1, Shape{})
			if err == nil {
				plans[i] = p
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if plans[i] == nil || plans[i] != plans[0] {
			t.Fatalf("worker %d got plan %p, want %p", i, plans[i], plans[0])
		}
	}
}

func TestCompilePlanErrors(t *testing.T) {
	if _, err := CompilePlanFor(CollBroadcast, AlgoBinomial, 0, 1, Shape{}); err == nil {
		t.Error("nPEs=0 must fail")
	}
	if _, err := CompilePlanFor(CollBroadcast, Algorithm("fft"), 4, 1, Shape{}); err == nil {
		t.Error("unregistered algorithm must fail")
	}
	if _, err := CompilePlanFor(CollAlltoall, AlgoLinear, 4, 1, Shape{}); err == nil {
		t.Error("registered algorithm without this collective must fail")
	}
}

// ---------------------------------------------------------------------
// Executor hot path: with the plan cached and observability disabled, a
// collective call must allocate nothing on the host (the plan-engine
// analogue of the put/get overhead guards in internal/xbrtime).
// ---------------------------------------------------------------------

func TestCachedPlanExecZeroAllocs(t *testing.T) {
	rt := xbrtime.MustNew(xbrtime.Config{NumPEs: 1})
	defer rt.Close()
	pe := rt.PE(0)
	buf, err := pe.Malloc(8 * 2)
	if err != nil {
		t.Fatal(err)
	}
	dest, src := buf, buf+8
	// Warm-up compiles and caches the plan and faults in lazy state.
	if err := Broadcast(pe, xbrtime.TypeInt64, dest, src, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := Broadcast(pe, xbrtime.TypeInt64, dest, src, 1, 1, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cached-plan broadcast with obs disabled: %.1f allocs/op, want 0", allocs)
	}
}

// ---------------------------------------------------------------------
// Workspace pool balance: every borrow must be returned on success and
// error paths alike. The historical Alltoall leak (the deferred
// ReturnHandles captured the pre-append slice header) is pinned here.
// ---------------------------------------------------------------------

func TestAlltoallPoolBalance(t *testing.T) {
	const n = 4
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: n})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	type balance struct{ ints, handles int }
	var after []balance
	err = rt.Run(func(pe *xbrtime.PE) error {
		dest, err := pe.Malloc(8 * n)
		if err != nil {
			return err
		}
		src, err := pe.Malloc(8 * n)
		if err != nil {
			return err
		}
		if err := Alltoall(pe, xbrtime.TypeInt64, dest, src, 1); err != nil {
			return err
		}

		// Error path: a negative element count passes through the
		// executor (the public entry point rejects it) and makes the
		// first non-blocking put fail after the handle slice is
		// borrowed; the executor must still return it.
		p, err := CompilePlanFor(CollAlltoall, AlgoDirect, n, 1, Shape{})
		if err != nil {
			return err
		}
		if execErr := Execute(pe, p, ExecArgs{
			DT: xbrtime.TypeInt64, Dest: dest, Src: src,
			Nelems: -1, Stride: 1,
		}); execErr == nil {
			t.Error("negative-nelems execution must fail")
		}

		ints, handles := pe.WorkspaceOutstanding()
		mu.Lock()
		after = append(after, balance{ints, handles})
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range after {
		if b.ints != 0 || b.handles != 0 {
			t.Fatalf("workspace pools imbalanced after alltoall: ints=%d handles=%d",
				b.ints, b.handles)
		}
	}
}

// TestVectorCollectivePoolBalance covers the AdjVector borrow
// (adjustedDisplacements) through the executor's success path.
func TestVectorCollectivePoolBalance(t *testing.T) {
	const n = 5
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: n})
	if err != nil {
		t.Fatal(err)
	}
	msgs := []int{1, 1, 1, 1, 1}
	disp := []int{0, 1, 2, 3, 4}
	var mu sync.Mutex
	bad := false
	err = rt.Run(func(pe *xbrtime.PE) error {
		dest, err := pe.Malloc(8 * n)
		if err != nil {
			return err
		}
		src, err := pe.Malloc(8 * n)
		if err != nil {
			return err
		}
		if err := Scatter(pe, xbrtime.TypeInt64, dest, src, msgs, disp, n, 0); err != nil {
			return err
		}
		if err := Gather(pe, xbrtime.TypeInt64, dest, src, msgs, disp, n, 0); err != nil {
			return err
		}
		ints, handles := pe.WorkspaceOutstanding()
		if ints != 0 || handles != 0 {
			mu.Lock()
			bad = true
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad {
		t.Fatal("workspace pools imbalanced after vector collectives")
	}
}
