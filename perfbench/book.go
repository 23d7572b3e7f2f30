package main

import (
	"sync/atomic"

	"ssdkeeper/internal/trace"
)

// Request outcomes as the client sees them.
const (
	outOK = iota
	outRejected
	outFailed
)

// Request slot states.
const (
	stIssued uint32 = iota + 1
	stAnswered
)

// reqSlot tracks one in-flight request id on the client side.
type reqSlot struct {
	id    atomic.Uint64
	start atomic.Int64
	state atomic.Uint32
}

// book is the client-side ledger of one serving rig: it proves every request
// id is answered exactly once, and gathers the measured phase's RTTs and
// modelled latencies (plus, when traced, each request's per-layer split).
type book struct {
	gen   stream
	accel float64
	tr    *tracer // nil: untraced
	slots []reqSlot

	issued, answered, ok atomic.Int64
	dup, overflow, bad   atomic.Int64

	// Measured phase: ids from measureFrom on. Completions inside the
	// window are counted per wall second of it.
	measureFrom atomic.Uint64
	windowStart atomic.Int64
	perSec      []atomic.Int64
	mIssued     atomic.Int64
	mOutcome    [3]atomic.Int64
	latSum      [2]atomic.Int64 // modelled latency (ns) of OK reads, writes
	latN        [2]atomic.Int64

	rtt, readLat *hist
	ovh          *hist // RTT minus modelled latency ÷ accel, OK replies

	// Traced only: per-request layer split, nanoseconds.
	front, self, handler, residency, nodeOvh *hist
}

func newBook(gen stream, accel float64, tr *tracer, seconds int) *book {
	b := &book{
		gen:     gen,
		accel:   accel,
		tr:      tr,
		slots:   make([]reqSlot, ringMask+1),
		perSec:  make([]atomic.Int64, seconds),
		rtt:     newHist(),
		readLat: newHist(),
		ovh:     newHist(),
	}
	b.measureFrom.Store(^uint64(0))
	if tr != nil {
		b.front = newHist()
		b.self = newHist()
		b.handler = newHist()
		b.residency = newHist()
		b.nodeOvh = newHist()
	}
	return b
}

// begin records id as issued now.
func (b *book) begin(id uint64) {
	s := &b.slots[id&ringMask]
	if s.state.Load() == stIssued {
		b.overflow.Add(1) // an older request still holds the slot
	}
	s.id.Store(id)
	s.start.Store(now())
	s.state.Store(stIssued)
	b.issued.Add(1)
	if id >= b.measureFrom.Load() {
		b.mIssued.Add(1)
	}
}

// finish records id's outcome; latNS is the modelled latency of an OK reply.
func (b *book) finish(id uint64, latNS int64, out int) {
	end := now()
	s := &b.slots[id&ringMask]
	start := s.start.Load()
	if s.id.Load() != id || !s.state.CompareAndSwap(stIssued, stAnswered) {
		b.dup.Add(1)
		return
	}
	b.answered.Add(1)
	if out == outOK && latNS <= 0 {
		b.bad.Add(1) // an OK reply must carry a modelled latency
		out = outFailed
	}
	if out == outOK {
		b.ok.Add(1)
	}
	if id < b.measureFrom.Load() {
		return
	}
	b.mOutcome[out].Add(1)
	rtt := end - start
	b.rtt.add(rtt)
	if sec := (end - b.windowStart.Load()) / 1e9; sec >= 0 && sec < int64(len(b.perSec)) {
		b.perSec[sec].Add(1)
	}
	if out != outOK {
		return
	}
	b.ovh.add(overheadNS(rtt, latNS, b.accel))
	op := 0
	if b.gen.request(id).Op == trace.Write {
		op = 1
	} else {
		b.readLat.add(latNS)
	}
	b.latSum[op].Add(latNS)
	b.latN[op].Add(1)
	if b.tr != nil {
		b.split(id, rtt, latNS)
	}
}

// split attributes one traced request's RTT to the layers: the front (client
// codec and the client↔router hop) is RTT minus the router span, the
// router's self time is its span minus the node span it covers, and the
// node's residency splits into modelled device time and overhead.
func (b *book) split(id uint64, rtt, latNS int64) {
	r, rok := b.tr.slot(layerRouter, id).span(id)
	n, nok := b.tr.slot(layerNode, id).span(id)
	if rok {
		b.front.add(rtt - r.dur())
		b.handler.add(r.dur())
		if nok {
			b.self.add(selfTime(r, []interval{n}))
		}
	}
	if nok {
		b.residency.add(n.dur())
		b.nodeOvh.add(overheadNS(n.dur(), latNS, b.accel))
	}
}

// throughput is the median over the window's wall seconds of the requests
// completed in each, per second of CPU left to the program: stolen[i] is
// the CPU time taken from the VM during second i, and the program runs on
// procs processors.
func (b *book) throughput(stolen []int64, procs int) float64 {
	rates := make([]float64, len(b.perSec))
	for i := range b.perSec {
		rates[i] = float64(b.perSec[i].Load()) / (1 - lostShare(stolen[i], procs, 1e9))
	}
	return median(rates)
}

// lostShare is the share of procs processors' time over a span of ns
// nanoseconds that stolen CPU time took away. Steal beyond that capacity
// fell on processors the program was not using, so it counts as none.
func lostShare(stolen int64, procs int, ns float64) float64 {
	share := float64(stolen) / float64(procs) / ns
	if share >= 1 {
		return 0
	}
	return share
}

// totalUS is the modelled total latency of the measured phase's OK replies,
// in µs: mean read latency plus mean write latency, the paper's Fig. 5
// "total" (stats.Latency.Total).
func (b *book) totalUS() float64 {
	var t float64
	for op := range b.latSum {
		if n := b.latN[op].Load(); n > 0 {
			t += float64(b.latSum[op].Load()) / float64(n) / 1e3
		}
	}
	return t
}
