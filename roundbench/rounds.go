package main

import (
	"sync"

	"repro/internal/wire"
)

// Phase vocabulary. A transport round (Algorithm 2 lines 5–10) is, in
// order: SlotInfo fan-out, Request fan-in, [federation only: the peer
// request exchange], selection, grant/decision commit, [federation only:
// gossip flush + barrier], and close (bookkeeping up to the round-end
// observer). An engine slot is collect, select, apply.
var (
	platformPhases = []string{"fanout", "fanin", "decide", "commit", "close"}
	nodePhases     = []string{"fanout", "fanin", "exchange", "decide", "commit", "barrier", "close"}
	enginePhases   = []string{"collect", "select", "apply"}
)

// roundMarks are the boundary timestamps of one platform round as seen at
// the wrapped agent links: the first SlotInfo send start, the last SlotInfo
// send end, the last Request received, the first Grant send start and the
// last Decision received. Zero means the event did not happen this round.
type roundMarks struct {
	start, end                                    int64
	siFirst, siLast, reqLast, grantFirst, decLast int64
	msgs                                          int
}

// roundRec assembles roundMarks from one platform's message events. It is
// driven from the platform's own goroutine (link events and the round-end
// observer both run there), so it takes no lock.
type roundRec struct {
	cur     roundMarks
	open    bool
	prevEnd int64
	rounds  []roundMarks
	total   int // every message, in and out of rounds
}

// event records one message on a platform link. Messages outside a
// decision round (Hello, Init, the initial Decisions, Terminate) are not
// round traffic and are ignored.
func (r *roundRec) event(kind wire.Kind, out bool, t0, t1 int64) {
	r.total++
	c := &r.cur
	switch {
	case out && kind == wire.KindSlotInfo:
		if !r.open {
			r.open = true
			c.siFirst = t0
		}
		c.siLast = t1
	case !r.open:
		return
	case !out && kind == wire.KindRequest:
		c.reqLast = t1
	case out && kind == wire.KindGrant:
		if c.grantFirst == 0 {
			c.grantFirst = t0
		}
	case !out && kind == wire.KindDecision:
		c.decLast = t1
	default:
		return
	}
	c.msgs++
}

// close ends the open round at t, the round-end observer's timestamp. The
// first round starts at setStart's value when one was given, else at its
// first SlotInfo.
func (r *roundRec) close(t int64) {
	if !r.open {
		return
	}
	c := r.cur
	c.start = r.prevEnd
	if c.start == 0 {
		c.start = c.siFirst
	}
	c.end = t
	r.rounds = append(r.rounds, c)
	r.prevEnd = t
	r.cur = roundMarks{}
	r.open = false
}

// setStart fixes the start of the next round (the slot-0 observation).
func (r *roundRec) setStart(t int64) { r.prevEnd = t }

// peerRec collects the peer-link frames of a two-shard federation as seen
// on shard 0's accepted peer connection: writes are shard 0's frames to
// shard 1, reads are shard 1's frames to shard 0. ShardRequests batches
// are indexed by arrival order (one per slot per direction in a clean
// run); gossip batches by the round stamped in their envelope.
type peerRec struct {
	mu     sync.Mutex
	srOut  []int64 // slot-1-indexed end of shard 0's request batch write
	srIn   []int64 // arrival of shard 1's request batch at shard 0
	gdOut  map[int]int64
	gdIn   map[int]int64
	srSize [2][]int64 // request batch sizes, out and in
	other  int64      // bytes of every other frame
	frames int64      // frames other than request batches
}

func newPeerRec() *peerRec {
	return &peerRec{gdOut: map[int]int64{}, gdIn: map[int]int64{}}
}

func (p *peerRec) frame(ev frameEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ev.kind == wire.KindShardRequests {
		if ev.out {
			p.srOut = append(p.srOut, ev.end)
			p.srSize[0] = append(p.srSize[0], ev.size)
		} else {
			p.srIn = append(p.srIn, ev.end)
			p.srSize[1] = append(p.srSize[1], ev.size)
		}
		return
	}
	p.other += ev.size
	p.frames++
	if ev.kind == wire.KindGossipDelta {
		if ev.out {
			p.gdOut[int(ev.epoch)] = ev.end
		} else {
			p.gdIn[int(ev.epoch)] = ev.end
		}
	}
}

// traffic returns the bytes and frames the peer link carried for a run of
// slots decision slots, the terminating one included. It leaves out each
// shard's farewell marker, the request batch sent after the last slot:
// whether the peer reads it before the link closes is a race, so counting
// it would make the byte count differ between runs of one instance.
func (p *peerRec) traffic(slots int) (bytes, frames int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	bytes, frames = p.other, p.frames
	for _, sizes := range p.srSize {
		for _, n := range sizes[:min(slots, len(sizes))] {
			bytes += n
			frames++
		}
	}
	return bytes, frames
}

// arrivals returns when shard s had its peer's request batch and gossip
// batch for round r (1-based). Shard 1's arrivals are shard 0's write
// ends: the loopback transit is not observable from shard 1's side, whose
// dialed connection the benchmark does not hand in.
func (p *peerRec) arrivals(shard, r int) (requests, gossip int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sr, gd := p.srIn, p.gdIn
	if shard == 1 {
		sr, gd = p.srOut, p.gdOut
	}
	if r-1 < len(sr) {
		requests = sr[r-1]
	}
	return requests, gd[r]
}

// tile splits [start, end] at the given phase boundaries. marks has one
// entry more than there are phases: marks[0] opens the first phase and
// marks[len-1] closes the last. A missing (zero) or out-of-order mark is
// clamped to the previous boundary, so the phases never overlap and never
// leave [start, end]. covered is the sum of the phase durations; what the
// phases leave uncovered is (end-start) - covered.
func tile(start, end int64, marks []int64) (phases []int64, covered int64) {
	phases = make([]int64, len(marks)-1)
	prev := clamp(marks[0], start, end)
	for i := 1; i < len(marks); i++ {
		m := clamp(marks[i], prev, end)
		phases[i-1] = m - prev
		covered += m - prev
		prev = m
	}
	return phases, covered
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// platformMarks returns the phase boundaries of a standalone platform
// round: fanout, fanin, decide, commit, close.
func platformMarks(m roundMarks) []int64 {
	commitEnd := m.decLast
	if m.grantFirst == 0 {
		commitEnd = 0
	}
	return []int64{m.siFirst, m.siLast, m.reqLast, m.grantFirst, commitEnd, m.end}
}

// nodeMarks returns the phase boundaries of a federated shard round:
// fanout, fanin, exchange, decide, commit, barrier, close.
func nodeMarks(m roundMarks, reqArrival, gossipArrival int64) []int64 {
	commitEnd := m.decLast
	if m.grantFirst == 0 {
		commitEnd = 0
	}
	return []int64{m.siFirst, m.siLast, m.reqLast, reqArrival, m.grantFirst, commitEnd, gossipArrival, m.end}
}

// spanRec is one recorded span: a round (parent -1) or a phase of one.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Round  int    `json:"round"`
	Shard  int    `json:"shard"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run writes them out.
type spanLog struct{ spans []spanRec }

func (l *spanLog) add(parent int, name string, round, shard int, start, end int64) int {
	id := len(l.spans)
	l.spans = append(l.spans, spanRec{ID: id, Parent: parent, Name: name, Round: round, Shard: shard, Start: start, End: end})
	return id
}

// phaseTotals accumulates tiled rounds: per-phase time, round time, and
// covered time, all in nanoseconds.
type phaseTotals struct {
	names   []string
	sum     []int64
	rounds  int
	roundNs int64
	covered int64
}

func newPhaseTotals(names []string) *phaseTotals {
	return &phaseTotals{names: names, sum: make([]int64, len(names))}
}

// addRound tiles one round, accumulates it and records its spans.
func (t *phaseTotals) addRound(log *spanLog, round, shard int, start, end int64, marks []int64) {
	phases, covered := tile(start, end, marks)
	parent := log.add(-1, "round", round, shard, start, end)
	at := clamp(marks[0], start, end)
	for i, d := range phases {
		t.sum[i] += d
		log.add(parent, t.names[i], round, shard, at, at+d)
		at += d
	}
	t.rounds++
	t.roundNs += end - start
	t.covered += covered
}

// meanMs returns phase name's mean time per round in milliseconds.
func (t *phaseTotals) meanMs(name string) float64 {
	for i, n := range t.names {
		if n == name && t.rounds > 0 {
			return float64(t.sum[i]) / float64(t.rounds) / 1e6
		}
	}
	return 0
}

// uncoveredPct is the share of round time no phase covers.
func (t *phaseTotals) uncoveredPct() float64 {
	if t.roundNs == 0 {
		return 0
	}
	return 100 * float64(t.roundNs-t.covered) / float64(t.roundNs)
}
