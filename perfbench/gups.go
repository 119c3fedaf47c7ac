package main

import (
	"fmt"

	"xbgas/internal/core"
	"xbgas/internal/xbrtime"
)

// gupsWork is HPCC RandomAccess as an SPMD loop: each iteration the
// root from the run's root cycle broadcasts the iteration's stream seed, every PE applies
// its update stream (remote words by GetNB, xor, PutNB with a bounded
// lookahead; local words by timed loads and stores), a barrier closes
// the updates, and the per-PE remote and local update counts are
// combined with reduce(sum) and allreduce(sum).
type gupsWork struct {
	seed      uint64
	pes       int
	words     uint64 // global table size, a power of two
	perPE     uint64
	updates   int // per PE per iteration
	lookahead int

	table, param, src, cnt, out, cnt2, out2, scratch uint64

	mirror     []uint64 // the table as the sequential oracle has it
	peek       []uint64
	streamSeed uint64
	roots      []int // the root cycle
	root       int   // broadcast and reduce root this iteration
}

var gupsType = xbrtime.TypeUint64

func newGUPS(seed uint64, pes int, words uint64, updates, lookahead int) *gupsWork {
	w := &gupsWork{
		seed: seed, pes: pes, words: words, perPE: words / uint64(pes),
		updates: updates, lookahead: lookahead,
		mirror: make([]uint64, words),
		roots:  rootCycle(seed, pes),
	}
	for i := range w.mirror {
		w.mirror[i] = uint64(i) // the HPCC initial condition
	}
	w.peek = make([]uint64, w.perPE)
	return w
}

func (w *gupsWork) config() xbrtime.Config { return xbrtime.Config{NumPEs: w.pes} }

func (w *gupsWork) alloc(pe *xbrtime.PE) error {
	table, err := pe.Malloc(w.perPE * 8)
	if err != nil {
		return err
	}
	var small [6]uint64
	for i := range small {
		if small[i], err = pe.Malloc(8); err != nil {
			return err
		}
	}
	scratch, err := pe.PrivateAlloc(uint64(w.lookahead) * 8)
	if err != nil {
		return err
	}
	me := uint64(pe.MyPE())
	pe.PokeElems(gupsType, table, w.mirror[me*w.perPE:(me+1)*w.perPE])
	if me == 0 {
		w.table, w.scratch = table, scratch
		w.param, w.src, w.cnt, w.out, w.cnt2, w.out2 = small[0], small[1], small[2], small[3], small[4], small[5]
	}
	return nil
}

func (w *gupsWork) cycle() int { return len(w.roots) }

func (w *gupsWork) gen(it int) {
	w.streamSeed = stream(w.seed, it, 0, -1)
	w.root = w.roots[it%len(w.roots)]
}

func (w *gupsWork) fingerprint() uint64 {
	h := fnv(0, w.streamSeed, uint64(w.root))
	x := gupsStart(w.streamSeed, 0)
	for i := 0; i < 64; i++ {
		x = gupsLCG(x)
		h = fnv(h, gupsMix(x)&(w.words-1))
	}
	return h
}

func (w *gupsWork) poke(rt *xbrtime.Runtime) {
	rt.PE(w.root).Poke(gupsType, w.src, w.streamSeed)
}

// gupsLCG advances the HPCC-style update stream; gupsMix folds the
// state's high bits into the index bits (a power-of-two LCG's low bits
// have short periods).
func gupsLCG(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

func gupsMix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	return x ^ x>>33
}

func gupsStart(seed uint64, pe int) uint64 { return gupsLCG(seed ^ uint64(pe)<<32) }

type pendingUpdate struct {
	owner int
	addr  uint64
	val   uint64
	h     xbrtime.Handle
}

func (w *gupsWork) body(pe *xbrtime.PE, log *peLog) error {
	log.begin(pe, kBroadcast)
	err := core.BroadcastWith(core.AlgoAuto, pe, gupsType, w.param, w.src, 1, 1, w.root)
	log.end(pe)
	if err != nil {
		return fmt.Errorf("broadcast on PE %d: %w", pe.MyPE(), err)
	}
	seed := pe.ReadElem(gupsType, w.param)

	log.begin(pe, kRMA)
	local, remote, err := w.stream(pe, seed)
	log.end(pe)
	if err != nil {
		return err
	}

	log.begin(pe, kBarrier)
	err = pe.Barrier()
	log.end(pe)
	if err != nil {
		return err
	}

	pe.WriteElem(gupsType, w.cnt, remote)
	log.begin(pe, kReduce)
	err = core.ReduceWith(core.AlgoAuto, pe, gupsType, core.OpSum, w.out, w.cnt, 1, 1, w.root)
	log.end(pe)
	if err != nil {
		return fmt.Errorf("reduce on PE %d: %w", pe.MyPE(), err)
	}
	pe.WriteElem(gupsType, w.cnt2, local)
	log.begin(pe, kAllReduce)
	err = core.AllReduceWith(pe, core.AlgoAuto, gupsType, core.OpSum, w.out2, w.cnt2, 1, 1)
	log.end(pe)
	if err != nil {
		return fmt.Errorf("allreduce on PE %d: %w", pe.MyPE(), err)
	}
	return nil
}

// stream applies this PE's updates: a read of the target word followed
// by a write of the same word, batched w.lookahead deep through the
// non-blocking forms. Index arithmetic and the xor are charged as ALU
// cycles, as in the paper's kernel.
func (w *gupsWork) stream(pe *xbrtime.PE, seed uint64) (local, remote uint64, err error) {
	me := pe.MyPE()
	pending := make([]pendingUpdate, 0, w.lookahead)
	flush := func() error {
		for i := range pending {
			pe.Wait(pending[i].h)
		}
		for i := range pending {
			s := &pending[i]
			slot := w.scratch + uint64(i)*8
			pe.WriteElem(gupsType, slot, pe.ReadElem(gupsType, slot)^s.val)
			pe.Advance(1)
			h, err := pe.PutNB(gupsType, s.addr, slot, 1, 1, s.owner)
			if err != nil {
				return err
			}
			s.h = h
		}
		for i := range pending {
			pe.Wait(pending[i].h)
		}
		pending = pending[:0]
		return nil
	}
	x := gupsStart(seed, me)
	for u := 0; u < w.updates; u++ {
		x = gupsLCG(x)
		idx := gupsMix(x) & (w.words - 1)
		owner := int(idx / w.perPE)
		addr := w.table + (idx%w.perPE)*8
		pe.Advance(4)
		if owner == me {
			v := pe.ReadElem(gupsType, addr)
			pe.Advance(1)
			pe.WriteElem(gupsType, addr, v^x)
			local++
			continue
		}
		h, err := pe.GetNB(gupsType, w.scratch+uint64(len(pending))*8, addr, 1, 1, owner)
		if err != nil {
			return 0, 0, err
		}
		remote++
		pending = append(pending, pendingUpdate{owner: owner, addr: addr, val: x, h: h})
		if len(pending) == w.lookahead {
			if err := flush(); err != nil {
				return 0, 0, err
			}
		}
	}
	return local, remote, flush()
}

// check replays the iteration's updates sequentially on the oracle's
// copy of the table (xor is an involution, so replay order does not
// matter) and compares it with the simulated table. Words that differ
// are updates lost to racing read-modify-writes; HPCC accepts up to 1%
// of the updates. Each update is one attempted operation and each
// collective call another.
func (w *gupsWork) check(rt *xbrtime.Runtime) tally {
	t := tally{attempted: int64(w.updates*w.pes) + 3}
	var local, remote uint64
	for p := 0; p < w.pes; p++ {
		x := gupsStart(w.streamSeed, p)
		for u := 0; u < w.updates; u++ {
			x = gupsLCG(x)
			idx := gupsMix(x) & (w.words - 1)
			w.mirror[idx] ^= x
			if int(idx/w.perPE) == p {
				local++
			} else {
				remote++
			}
		}
	}
	for p := 0; p < w.pes; p++ {
		pe := rt.PE(p)
		if pe.Peek(gupsType, w.param) != w.streamSeed {
			t.failed++
			break
		}
	}
	if rt.PE(w.root).Peek(gupsType, w.out) != remote {
		t.failed++
	}
	for p := 0; p < w.pes; p++ {
		if rt.PE(p).Peek(gupsType, w.out2) != local {
			t.failed++
			break
		}
	}
	for p := 0; p < w.pes; p++ {
		rt.PE(p).PeekElems(gupsType, w.table, w.peek)
		part := w.mirror[uint64(p)*w.perPE : uint64(p+1)*w.perPE]
		for i, v := range w.peek {
			if v != part[i] {
				t.lost++
				part[i] = v // resynchronise: later iterations start from the simulated table
			}
		}
	}
	if t.lost*100 > int64(w.updates*w.pes) {
		t.failed += t.lost
	}
	return t
}

func (w *gupsWork) shapes() []callShape {
	return []callShape{{kBroadcast, 1}, {kReduce, 1}, {kAllReduce, 1}}
}
