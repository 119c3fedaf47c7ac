package core

import (
	"sort"
	"sync"
)

// The planner registry replaces the old Algorithm-enum switch: an
// algorithm is a named Planner that compiles plans for the collectives
// it implements, and new algorithms (a ring or PAT-style all-gather,
// say) register here without touching the per-collective entry points.

// Planner compiles communication plans for one algorithm family.
type Planner struct {
	// Name is the algorithm name callers select by (-algo on the
	// bench driver).
	Name Algorithm
	// Collectives lists the operations the planner implements.
	Collectives []Collective
	// Compile builds the plan for coll over n PEs in virtual-rank
	// space, or returns nil when the planner does not implement coll.
	// segments > 1 asks for the segmented (pipelined) form of a
	// message split into that many segments; a planner without one for
	// coll returns nil, and CompilePlanFor then serves the unsegmented
	// plan. sh is the fabric grouping for a Shaped planner and the
	// flat zero Shape otherwise.
	Compile func(coll Collective, n, segments int, sh Shape) *Plan
	// Shaped marks a planner whose plans depend on the fabric grouping
	// (the hierarchical planner schedules intra-node and inter-node
	// phases separately): its plans are compiled and cached per
	// grouping. Every other planner compiles one flat plan that all
	// groupings share.
	Shaped bool
}

// Supports reports whether the planner implements coll.
func (p *Planner) Supports(coll Collective) bool {
	for _, c := range p.Collectives {
		if c == coll {
			return true
		}
	}
	return false
}

var (
	regMu    sync.RWMutex
	registry = map[Algorithm]*Planner{}
)

// RegisterPlanner adds (or replaces) a planner under its name and
// invalidates cached auto decisions: the new planner is a candidate.
func RegisterPlanner(p *Planner) {
	regMu.Lock()
	registry[p.Name] = p
	regMu.Unlock()
	invalidateAuto()
}

// LookupPlanner resolves an algorithm name to its planner.
func LookupPlanner(name Algorithm) (*Planner, bool) {
	regMu.RLock()
	p, ok := registry[name]
	regMu.RUnlock()
	return p, ok
}

// PlannerNames lists the registered algorithm names, sorted.
func PlannerNames() []string {
	regMu.RLock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, string(n))
	}
	regMu.RUnlock()
	sort.Strings(names)
	return names
}

// unsegmented adapts a compile function with neither segmented nor
// shaped forms to the Compile hook: segmented requests get nil, so
// CompilePlanFor serves the unsegmented plan.
func unsegmented(compile func(coll Collective, n int) *Plan) func(Collective, int, int, Shape) *Plan {
	return func(coll Collective, n, segments int, _ Shape) *Plan {
		if segments > 1 {
			return nil
		}
		return compile(coll, n)
	}
}

func init() {
	RegisterPlanner(&Planner{
		Name: AlgoBinomial,
		Collectives: []Collective{
			CollBroadcast, CollReduce, CollScatter, CollGather,
			CollAllReduce, CollAllGather,
		},
		Compile: compileBinomial,
	})
	RegisterPlanner(&Planner{
		Name: AlgoLinear,
		Collectives: []Collective{
			CollBroadcast, CollReduce, CollScatter, CollGather,
		},
		Compile: unsegmented(compileLinear),
	})
	RegisterPlanner(&Planner{
		Name:        AlgoScatterAllgather,
		Collectives: []Collective{CollBroadcast},
		Compile:     unsegmented(compileScatterAllgather),
	})
	RegisterPlanner(&Planner{
		Name:        AlgoDirect,
		Collectives: []Collective{CollAlltoall},
		Compile:     unsegmented(compileDirect),
	})
}
