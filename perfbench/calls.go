package main

import (
	"fmt"
	"time"

	"xbgas/internal/xbrtime"
)

// kind names one public call the benchmark times on every PE: the six
// core collectives, the world barrier, and (GUPS only) the whole
// update stream of put/get/Wait calls.
type kind int

const (
	kBroadcast kind = iota
	kReduce
	kScatter
	kGather
	kAllReduce
	kAllGather
	kBarrier
	kRMA
	numKinds
)

// numColls is the number of core collectives among the kinds; they come
// first, so kind < numColls selects them.
const numColls = int(kBarrier)

var kindNames = [numKinds]string{
	"broadcast", "reduce", "scatter", "gather", "allreduce", "allgather", "barrier", "rma",
}

func (k kind) String() string { return kindNames[k] }

// epoch anchors the host timestamps of per-call spans.
var epoch = time.Now()

func hostNow() int64 { return int64(time.Since(epoch)) }

// callRec is one call on one PE: virtual clocks at entry and exit, and
// host timestamps when host spans are recorded.
type callRec struct {
	kind          kind
	enter, exit   uint64
	hEnter, hExit int64
}

// peLog is one PE's record of an iteration. Only the owning PE's
// goroutine writes it; the driver reads it after Runtime.Run returns.
type peLog struct {
	host        bool   // record host timestamps too (traced run)
	enter, exit uint64 // virtual clock at body entry and exit
	recs        []callRec
}

func (l *peLog) reset() {
	l.recs = l.recs[:0]
}

func (l *peLog) begin(pe *xbrtime.PE, k kind) {
	r := callRec{kind: k, enter: pe.Now()}
	if l.host {
		r.hEnter = hostNow()
	}
	l.recs = append(l.recs, r)
}

func (l *peLog) end(pe *xbrtime.PE) {
	r := &l.recs[len(l.recs)-1]
	r.exit = pe.Now()
	if l.host {
		r.hExit = hostNow()
	}
}

// spans is an iteration's timing on both clocks. A call's span is the
// latest PE exit minus the earliest PE entry; spans of one kind sum.
type spans struct {
	makespan uint64
	cycles   [numKinds]uint64
	calls    [numKinds]int
	hostNs   [numKinds]int64
	order    []kind   // SPMD call sequence, one entry per call
	perCall  []uint64 // span of each call, in order
}

// collect folds the per-PE logs of one iteration into spans. Every PE
// must have made the same sequence of calls.
func collect(logs []*peLog) (spans, error) {
	var s spans
	first := logs[0]
	lo, hi := first.enter, first.exit
	for _, l := range logs[1:] {
		if len(l.recs) != len(first.recs) {
			return s, fmt.Errorf("PEs made %d and %d calls", len(first.recs), len(l.recs))
		}
		lo, hi = min(lo, l.enter), max(hi, l.exit)
	}
	s.makespan = hi - lo
	for k := range first.recs {
		r0 := first.recs[k]
		enter, exit := r0.enter, r0.exit
		hEnter, hExit := r0.hEnter, r0.hExit
		for _, l := range logs[1:] {
			r := l.recs[k]
			if r.kind != r0.kind {
				return s, fmt.Errorf("call %d is %s on one PE and %s on another", k, r0.kind, r.kind)
			}
			enter, exit = min(enter, r.enter), max(exit, r.exit)
			hEnter, hExit = min(hEnter, r.hEnter), max(hExit, r.hExit)
		}
		s.cycles[r0.kind] += exit - enter
		s.calls[r0.kind]++
		s.hostNs[r0.kind] += hExit - hEnter
		s.order = append(s.order, r0.kind)
		s.perCall = append(s.perCall, exit-enter)
	}
	return s, nil
}

// counters is a snapshot of the exact model counters the layers expose
// through public accessors. Deltas of two snapshots bracket a section.
type counters struct {
	msgs, bytes, stall                uint64
	l1Hit, l1Miss, l2Hit, l2Miss      uint64
	tlbHit, tlbMiss, memCycles        uint64
	puts, gets, barriers, peCycleSums uint64
}

func snapshot(rt *xbrtime.Runtime) counters {
	m := rt.Machine()
	c := counters{
		msgs:  m.Fabric.Messages(),
		bytes: m.Fabric.Bytes(),
		stall: m.Fabric.ContentionCycles(),
	}
	for _, n := range m.Nodes {
		h := n.Hier
		c.l1Hit += h.L1().Hits()
		c.l1Miss += h.L1().Misses()
		c.l2Hit += h.L2().Hits()
		c.l2Miss += h.L2().Misses()
		c.tlbHit += h.TLB().Hits()
		c.tlbMiss += h.TLB().Misses()
		c.memCycles += h.Cycles()
	}
	for r := 0; r < rt.NumPEs(); r++ {
		st := rt.PE(r).Stats()
		c.puts += st.Puts
		c.gets += st.Gets
		c.barriers += st.Barriers
		c.peCycleSums += st.Cycles
	}
	return c
}

func (c counters) sub(o counters) counters {
	return counters{
		msgs: c.msgs - o.msgs, bytes: c.bytes - o.bytes, stall: c.stall - o.stall,
		l1Hit: c.l1Hit - o.l1Hit, l1Miss: c.l1Miss - o.l1Miss,
		l2Hit: c.l2Hit - o.l2Hit, l2Miss: c.l2Miss - o.l2Miss,
		tlbHit: c.tlbHit - o.tlbHit, tlbMiss: c.tlbMiss - o.tlbMiss,
		memCycles: c.memCycles - o.memCycles,
		puts:      c.puts - o.puts, gets: c.gets - o.gets, barriers: c.barriers - o.barriers,
		peCycleSums: c.peCycleSums - o.peCycleSums,
	}
}

func (c counters) add(o counters) counters {
	return counters{
		msgs: c.msgs + o.msgs, bytes: c.bytes + o.bytes, stall: c.stall + o.stall,
		l1Hit: c.l1Hit + o.l1Hit, l1Miss: c.l1Miss + o.l1Miss,
		l2Hit: c.l2Hit + o.l2Hit, l2Miss: c.l2Miss + o.l2Miss,
		tlbHit: c.tlbHit + o.tlbHit, tlbMiss: c.tlbMiss + o.tlbMiss,
		memCycles: c.memCycles + o.memCycles,
		puts:      c.puts + o.puts, gets: c.gets + o.gets, barriers: c.barriers + o.barriers,
		peCycleSums: c.peCycleSums + o.peCycleSums,
	}
}

// reference sums the modelled numbers of the first root cycle of timed
// iterations; the metrics report per-iteration means of it.
type reference struct {
	iters    int
	makespan uint64
	cycles   [numKinds]uint64
	calls    [numKinds]int
	counts   counters
	lost     int64
}

func referenceOf(samples []sample, k int) reference {
	r := reference{iters: k}
	for _, s := range samples[:k] {
		r.makespan += s.spans.makespan
		for i := range r.cycles {
			r.cycles[i] += s.spans.cycles[i]
			r.calls[i] += s.spans.calls[i]
		}
		r.counts = r.counts.add(s.counts)
		r.lost += s.tally.lost
	}
	return r
}

// mean is a summed number per iteration.
func (r reference) mean(v uint64) float64 { return float64(v) / float64(r.iters) }

func rate(hit, miss uint64) float64 {
	if hit+miss == 0 {
		return 0
	}
	return float64(hit) / float64(hit+miss)
}
