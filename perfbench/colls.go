package main

import (
	"fmt"

	"xbgas/internal/core"
	"xbgas/internal/xbrtime"
)

// workload is one benchmark input set. The driver builds a runtime from
// config, runs alloc on every PE once, and then for each iteration it:
// gen writes the seeded inputs into host buffers, poke copies them into
// simulated memory (uncharged), body runs on every PE under lockstep
// (the timed section), and check compares every output with the
// sequential oracle (untimed).
type workload interface {
	config() xbrtime.Config
	alloc(pe *xbrtime.PE) error
	gen(it int)
	poke(rt *xbrtime.Runtime)
	body(pe *xbrtime.PE, log *peLog) error
	check(rt *xbrtime.Runtime) tally
	// fingerprint hashes the host-side inputs of the last gen.
	fingerprint() uint64
	// cycle is the number of iterations in the root cycle; the modelled
	// numbers are means over the first cycle of timed iterations.
	cycle() int
	// shapes lists the collective call shapes, for the auto-decision
	// record.
	shapes() []callShape
}

// tally counts verified operations.
type tally struct {
	attempted, failed int64
	lost              int64 // GUPS updates lost to racing read-modify-writes
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.lost += o.lost
}

// callShape is one collective call's selection input.
type callShape struct {
	kind   kind
	nelems int
}

// splitmix64 is the seeded generator behind every input.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// rootCycle returns the roots a run's iterations cycle through: one PE
// in each of min(n, 16) equal groups of ranks, all at one seed-chosen
// offset in their group, visiting the groups in rank order from a
// seed-chosen first group. Every group hosts the root once per cycle in
// the same cyclic order, so the modelled time of a whole cycle hardly
// depends on the seed.
func rootCycle(seed uint64, n int) []int {
	k := min(n, 16)
	stride := n / k
	off := int(stream(seed, 0, 0, -2) % uint64(stride))
	first := int(stream(seed, 0, 1, -2) % uint64(k))
	roots := make([]int, k)
	for i := range roots {
		roots[i] = (first+i)%k*stride + off
	}
	return roots
}

// stream derives an independent generator state for one input slot.
func stream(seed uint64, it, slot, pe int) uint64 {
	return splitmix64(splitmix64(splitmix64(seed)^uint64(it)<<20^uint64(slot)) ^ uint64(pe))
}

func fill(dst []uint64, s uint64) {
	for i := range dst {
		s += 0x9E3779B97F4A7C15
		dst[i] = splitmix64(s)
	}
}

// fnv folds values into an FNV-1a style hash.
func fnv(h uint64, vals ...uint64) uint64 {
	if h == 0 {
		h = 0xCBF29CE484222325
	}
	for _, v := range vals {
		h ^= v
		h *= 0x100000001B3
	}
	return h
}

var dt = xbrtime.TypeInt64

// collCall is one collective in an iteration of a collective workload.
// Rooted and all-reduce calls move n elements per PE; the vector calls
// (scatter, gather, allgather) move n elements in total, split as evenly
// as possible over the PEs.
type collCall struct {
	kind kind
	n    int
}

// collWork is a closed-loop SPMD loop over a fixed sequence of
// collective calls with algorithm auto, int64 payloads and reduce(sum).
// Each call has its own source and destination buffers. The inputs
// change every iteration; all rooted calls of an iteration share its
// root, taken from the run's root cycle.
type collWork struct {
	seed  uint64
	pes   int
	topo  string
	calls []collCall

	counts, disps [][]int  // per call; vector calls only
	src, dst      []uint64 // symmetric addresses per call
	roots         []int    // the root cycle
	root          int      // root of every rooted call this iteration
	in            [][][]uint64
	peek          []uint64
	sum           []uint64
}

func newCollWork(seed uint64, pes int, topo string, calls []collCall) *collWork {
	w := &collWork{seed: seed, pes: pes, topo: topo, calls: calls, roots: rootCycle(seed, pes)}
	maxN := 0
	for _, c := range calls {
		maxN = max(maxN, c.n)
		counts, disps := make([]int, pes), make([]int, pes)
		off := 0
		for p := range counts {
			counts[p] = c.n / pes
			if p < c.n%pes {
				counts[p]++
			}
			disps[p] = off
			off += counts[p]
		}
		w.counts = append(w.counts, counts)
		w.disps = append(w.disps, disps)
		in := make([][]uint64, pes)
		for p := range in {
			switch c.kind {
			case kReduce, kAllReduce, kBroadcast, kScatter:
				in[p] = make([]uint64, c.n)
			case kGather, kAllGather:
				in[p] = make([]uint64, counts[p])
			}
		}
		w.in = append(w.in, in)
	}
	w.src = make([]uint64, len(calls))
	w.dst = make([]uint64, len(calls))
	w.peek = make([]uint64, maxN)
	w.sum = make([]uint64, maxN)
	return w
}

func (w *collWork) config() xbrtime.Config {
	return xbrtime.Config{NumPEs: w.pes, TopoSpec: w.topo}
}

func (w *collWork) alloc(pe *xbrtime.PE) error {
	for i, c := range w.calls {
		if c.kind == kBarrier {
			continue
		}
		src, err := pe.Malloc(uint64(c.n) * 8)
		if err != nil {
			return err
		}
		dst, err := pe.Malloc(uint64(c.n) * 8)
		if err != nil {
			return err
		}
		// Symmetric allocation: every PE gets the same addresses, so
		// PE 0 publishes them. The lockstep runs one PE at a time.
		if pe.MyPE() == 0 {
			w.src[i], w.dst[i] = src, dst
		}
	}
	return nil
}

// rooted reports whether only the root's source is significant.
func rooted(k kind) bool { return k == kBroadcast || k == kScatter }

func (w *collWork) cycle() int { return len(w.roots) }

func (w *collWork) gen(it int) {
	w.root = w.roots[it%len(w.roots)]
	for i, c := range w.calls {
		for p, buf := range w.in[i] {
			if rooted(c.kind) && p != w.root {
				continue
			}
			fill(buf, stream(w.seed, it, i, p))
		}
	}
}

func (w *collWork) fingerprint() uint64 {
	h := fnv(0, uint64(w.root))
	for i, c := range w.calls {
		for p, buf := range w.in[i] {
			if rooted(c.kind) && p != w.root {
				continue
			}
			h = fnv(h, buf...)
		}
	}
	return h
}

func (w *collWork) poke(rt *xbrtime.Runtime) {
	for i, c := range w.calls {
		for p, buf := range w.in[i] {
			if rooted(c.kind) && p != w.root {
				continue
			}
			rt.PE(p).PokeElems(dt, w.src[i], buf)
		}
	}
}

func (w *collWork) body(pe *xbrtime.PE, log *peLog) error {
	for i, c := range w.calls {
		log.begin(pe, c.kind)
		var err error
		switch c.kind {
		case kBroadcast:
			err = core.BroadcastWith(core.AlgoAuto, pe, dt, w.dst[i], w.src[i], c.n, 1, w.root)
		case kReduce:
			err = core.ReduceWith(core.AlgoAuto, pe, dt, core.OpSum, w.dst[i], w.src[i], c.n, 1, w.root)
		case kScatter:
			err = core.ScatterWith(core.AlgoAuto, pe, dt, w.dst[i], w.src[i], w.counts[i], w.disps[i], c.n, w.root)
		case kGather:
			err = core.GatherWith(core.AlgoAuto, pe, dt, w.dst[i], w.src[i], w.counts[i], w.disps[i], c.n, w.root)
		case kAllReduce:
			err = core.AllReduceWith(pe, core.AlgoAuto, dt, core.OpSum, w.dst[i], w.src[i], c.n, 1)
		case kAllGather:
			err = core.AllGatherWith(pe, core.AlgoAuto, dt, w.dst[i], w.src[i], w.counts[i], w.disps[i], c.n)
		case kBarrier:
			err = pe.Barrier()
		}
		log.end(pe)
		if err != nil {
			return fmt.Errorf("%s on PE %d: %w", c.kind, pe.MyPE(), err)
		}
	}
	return nil
}

// check verifies every call of the last iteration on every PE against
// the sequential oracle: one attempted operation per collective call,
// failed if any PE holds a wrong element.
func (w *collWork) check(rt *xbrtime.Runtime) tally {
	var t tally
	for i, c := range w.calls {
		if c.kind == kBarrier {
			continue
		}
		t.attempted++
		if !w.checkCall(rt, i) {
			t.failed++
		}
	}
	return t
}

func (w *collWork) checkCall(rt *xbrtime.Runtime, i int) bool {
	c, root, in := w.calls[i], w.root, w.in[i]
	counts, disps := w.counts[i], w.disps[i]
	got := func(p, off, n int) []uint64 {
		buf := w.peek[:n]
		rt.PE(p).PeekElems(dt, w.dst[i]+uint64(off)*8, buf)
		return buf
	}
	sum := func() []uint64 {
		s := w.sum[:c.n]
		clear(s)
		for _, buf := range in {
			for j, v := range buf {
				s[j] += v // int64 addition wraps like two's-complement uint64
			}
		}
		return s
	}
	switch c.kind {
	case kBroadcast:
		for p := 0; p < w.pes; p++ {
			if !equal(got(p, 0, c.n), in[root]) {
				return false
			}
		}
	case kReduce:
		return equal(got(root, 0, c.n), sum())
	case kAllReduce:
		want := sum()
		for p := 0; p < w.pes; p++ {
			if !equal(got(p, 0, c.n), want) {
				return false
			}
		}
	case kScatter:
		for p := 0; p < w.pes; p++ {
			if !equal(got(p, 0, counts[p]), in[root][disps[p]:disps[p]+counts[p]]) {
				return false
			}
		}
	case kGather:
		for p := 0; p < w.pes; p++ {
			if !equal(got(root, disps[p], counts[p]), in[p]) {
				return false
			}
		}
	case kAllGather:
		for q := 0; q < w.pes; q++ {
			for p := 0; p < w.pes; p++ {
				if !equal(got(q, disps[p], counts[p]), in[p]) {
					return false
				}
			}
		}
	}
	return true
}

func equal(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (w *collWork) shapes() []callShape {
	var out []callShape
	for _, c := range w.calls {
		if c.kind != kBarrier {
			out = append(out, callShape{kind: c.kind, nelems: c.n})
		}
	}
	return out
}
