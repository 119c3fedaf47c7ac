package core

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xbgas/internal/xbrtime"
)

func TestTuningSaveLoadRoundTrip(t *testing.T) {
	defer SetTuning(DefaultTuning())
	path := filepath.Join(t.TempDir(), "fabric", "tuning.json")
	want := DefaultTuning()
	want.Fabric = "roundtrip"
	want.AlphaNs = 123
	if err := SaveTuning(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTuning(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("LoadTuning = %+v, want %+v", got, want)
	}
	if cur := CurrentTuning(); cur != want {
		t.Fatalf("LoadTuning did not install the table: %+v", cur)
	}
}

func TestLoadTuningRejectsWrongVersion(t *testing.T) {
	defer SetTuning(DefaultTuning())
	path := filepath.Join(t.TempDir(), "tuning.json")
	bad := DefaultTuning()
	bad.Version = TuningVersion + 1
	if err := SaveTuning(path, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTuning(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("LoadTuning(version mismatch) err = %v, want version error", err)
	}
	if _, err := LoadTuning(filepath.Join(t.TempDir(), "missing.json")); !os.IsNotExist(err) {
		t.Fatalf("LoadTuning(missing) err = %v, want not-exist", err)
	}
}

// The structural property the model exists for: at large payloads the
// bandwidth-optimal plans must price below the binomial tree, and the
// flat broadcast must price above it (the root serialises every byte).
func TestPlanCostOrdersLargeMessages(t *testing.T) {
	tn := DefaultTuning()
	const n, nelems, width = 8, 1 << 17, 8
	cost := func(coll Collective, algo Algorithm) float64 {
		seg := SelectSegments(coll, algo, n, nelems, width)
		p, err := CompilePlanFor(coll, algo, n, seg, Shape{})
		if err != nil {
			t.Fatalf("%s/%s: %v", coll, algo, err)
		}
		return PlanCostShape(p, tn, Shape{}, nelems, width)
	}
	if rab, bin := cost(CollAllReduce, AlgoRabenseifner), cost(CollAllReduce, AlgoBinomial); rab >= bin {
		t.Errorf("1MiB allreduce: rabenseifner %.0f >= binomial %.0f", rab, bin)
	}
	if ring, bin := cost(CollAllGather, AlgoRing), cost(CollAllGather, AlgoBinomial); ring >= bin {
		t.Errorf("1MiB allgather: ring %.0f >= binomial %.0f", ring, bin)
	}
	if bin, lin := cost(CollBroadcast, AlgoBinomial), cost(CollBroadcast, AlgoLinear); bin >= lin {
		t.Errorf("1MiB broadcast: binomial %.0f >= linear %.0f", bin, lin)
	}
}

// Auto decisions must react to the installed table: a fabric with free
// bandwidth but enormous per-message latency pushes allreduce selection
// to the shallowest plan available, and restoring the defaults brings
// the bandwidth-optimal pick back (exercising the decision cache's
// generation invalidation).
func TestAutoReactsToTuning(t *testing.T) {
	defer SetTuning(DefaultTuning())
	const n, nelems, width = 8, 1 << 17, 8
	before := AlgoAuto.SelectFor(CollAllReduce, n, nelems, width, Shape{})
	if before != AlgoRabenseifner && before != AlgoRing {
		t.Fatalf("default tuning pick = %s, want bandwidth-optimal", before)
	}
	slow := DefaultTuning()
	slow.AlphaNs = 1e9 // every message costs a second; round count is all that matters
	slow.BarrierNs = 0
	SetTuning(slow)
	after := AlgoAuto.SelectFor(CollAllReduce, n, nelems, width, Shape{})
	if pAfter, _ := CompilePlanFor(CollAllReduce, after, n, 1, Shape{}); pAfter != nil {
		pBefore, _ := CompilePlanFor(CollAllReduce, AlgoRing, n, 1, Shape{})
		if pBefore != nil && pAfter.Depth > pBefore.Depth {
			t.Errorf("latency-dominated tuning picked %s (depth %d) over shallower options", after, pAfter.Depth)
		}
	}
	SetTuning(DefaultTuning())
	if again := AlgoAuto.SelectFor(CollAllReduce, n, nelems, width, Shape{}); again != before {
		t.Errorf("restoring tuning: pick = %s, want %s", again, before)
	}
}

// autoCacheSnapshot copies the auto decision cache and its generation.
func autoCacheSnapshot() (uint64, map[autoKey]Algorithm) {
	autoMu.Lock()
	defer autoMu.Unlock()
	m := make(map[autoKey]Algorithm, len(autoCache))
	for k, v := range autoCache {
		m[k] = v
	}
	return autoCacheGen, m
}

// A call the entry point rejects must be rejected before AlgoAuto is
// resolved: pricing plans on a negative payload, or on a type the call
// refuses, would write a decision for a payload no valid call can have
// into the process-wide decision cache. Reduce-scatter has no binomial
// small-message floor, so a call resolved before validation always
// reaches the cost model.
func TestRejectedAutoCallLeavesDecisionCache(t *testing.T) {
	cases := []struct {
		name   string
		dt     xbrtime.DType
		nelems int
		want   string
	}{
		{"negative count", xbrtime.TypeInt64, -3, "negative element count"},
		{"invalid dtype", xbrtime.DType{Kind: xbrtime.KindFloat, Width: 2}, 64, "invalid data type"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := xbrtime.MustNew(xbrtime.Config{NumPEs: 4})
			defer rt.Close()
			// A fresh generation: any decision the call records shows
			// up as a changed cache.
			invalidateAuto()
			gen, before := autoCacheSnapshot()
			errs := make([]error, 4)
			if err := rt.Run(func(pe *xbrtime.PE) error {
				buf, err := pe.Malloc(8 * 64)
				if err != nil {
					return err
				}
				errs[pe.MyPE()] = ReduceScatterWith(pe, AlgoAuto, tc.dt, OpSum, buf, buf, tc.nelems)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i, err := range errs {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("PE %d: err = %v, want %q", i, err, tc.want)
				}
			}
			genAfter, after := autoCacheSnapshot()
			if genAfter != gen || !reflect.DeepEqual(after, before) {
				t.Errorf("rejected call changed the auto decision cache: gen %d -> %d, %v -> %v",
					gen, genAfter, before, after)
			}
		})
	}
}
