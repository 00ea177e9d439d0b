package main

// Outside-in instrumentation: everything here wraps a value the benchmark
// hands to the program (a net.Listener, a net.Conn, a distributed.Conn or
// an engine.Policy) and records what crosses it. No program code is
// changed to be measured.

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/wire"
)

// epoch anchors every timestamp the benchmark records; now() is monotonic
// nanoseconds since process start.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// --- in-memory listener ---

// pipeListener is a net.Listener whose connections are net.Pipe pairs:
// Dial hands the server end to a pending Accept and returns the client
// end. It lets agents reach ServeNode through the real netConn binary
// codec without opening sockets.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

// Dial blocks until an Accept takes the connection or the listener closes.
func (l *pipeListener) Dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, net.ErrClosed
	}
}

// Accept returns the next dialed connection; after Close it returns
// net.ErrClosed even when a Dial is pending.
func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case <-l.done:
		return nil, net.ErrClosed
	default:
	}
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// --- byte-level metering ---

// wireMeter counts the bytes, calls and write time of every connection
// that shares it. Both directions of a link are counted on one end.
type wireMeter struct {
	bytes, reads, writes, writeNs, frames atomic.Int64
}

type meterSnap struct{ bytes, reads, writes, writeNs, frames int64 }

func (m *wireMeter) snap() meterSnap {
	return meterSnap{m.bytes.Load(), m.reads.Load(), m.writes.Load(), m.writeNs.Load(), m.frames.Load()}
}

// frameEvent is one binary-codec frame seen on a metered connection:
// its kind, the envelope's epoch field (the round stamp of gossip
// frames), and when its first and last bytes crossed the wrapper.
type frameEvent struct {
	out        bool
	kind       wire.Kind
	epoch      uint32
	size       int64 // bytes, length prefix included
	start, end int64
}

// frameTracker follows the binary frame layout (4-byte little-endian
// length, then a 41-byte header whose byte 3 is the kind and bytes 12–15
// the epoch; docs/WIRE.md) across arbitrary read and write splits.
type frameTracker struct {
	pre   [20]byte // length prefix + the first 16 header bytes
	pos   int      // bytes of the current frame consumed
	total int      // 4 + frame length, once the prefix is complete
	start int64
}

// feed consumes p, which crossed the wrapper between start and end, and
// calls done for every frame that completes inside it.
func (f *frameTracker) feed(p []byte, start, end int64, done func(kind wire.Kind, epoch uint32, size, start, end int64)) {
	for len(p) > 0 {
		if f.pos == 0 {
			f.start = start
		}
		var n int
		if f.pos < len(f.pre) {
			n = copy(f.pre[f.pos:], p)
			if f.pos < 4 && f.pos+n >= 4 {
				f.total = 4 + int(binary.LittleEndian.Uint32(f.pre[:4]))
			}
		} else {
			n = min(len(p), f.total-f.pos)
		}
		f.pos += n
		p = p[n:]
		if f.pos >= len(f.pre) && f.pos >= f.total {
			done(wire.Kind(f.pre[7]), binary.LittleEndian.Uint32(f.pre[16:20]), int64(f.total), f.start, end)
			f.pos, f.total = 0, 0
		}
	}
}

// meteredConn counts a net.Conn's traffic into a wireMeter and, when
// onFrame is set, reports every binary-codec frame crossing it. Reads and
// writes each come from a single goroutine (the codec's contract), so the
// two trackers need no lock.
type meteredConn struct {
	net.Conn
	m       *wireMeter
	onFrame func(frameEvent)
	rf, wf  frameTracker
}

func (c *meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.m.reads.Add(1)
	c.m.bytes.Add(int64(n))
	if c.onFrame != nil && n > 0 {
		t := now()
		c.rf.feed(p[:n], t, t, func(k wire.Kind, e uint32, size, s, end int64) {
			c.m.frames.Add(1)
			c.onFrame(frameEvent{out: false, kind: k, epoch: e, size: size, start: s, end: end})
		})
	}
	return n, err
}

func (c *meteredConn) Write(p []byte) (int, error) {
	t0 := now()
	n, err := c.Conn.Write(p)
	t1 := now()
	c.m.writes.Add(1)
	c.m.bytes.Add(int64(n))
	c.m.writeNs.Add(t1 - t0)
	if c.onFrame != nil && n > 0 {
		c.wf.feed(p[:n], t0, t1, func(k wire.Kind, e uint32, size, s, end int64) {
			c.m.frames.Add(1)
			c.onFrame(frameEvent{out: true, kind: k, epoch: e, size: size, start: s, end: end})
		})
	}
	return n, err
}

// meteredListener wraps every accepted connection in a meteredConn.
type meteredListener struct {
	net.Listener
	m       *wireMeter
	onFrame func(frameEvent)
}

func (l *meteredListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &meteredConn{Conn: c, m: l.m, onFrame: l.onFrame}, nil
}

// --- message-level timing ---

// platformConn reports every message the platform sends or receives on
// one agent link to the platform's round recorder. The platform drives all
// its links from one goroutine, so the recorder needs no lock.
type platformConn struct {
	distributed.Conn
	rec *roundRec
}

func (c *platformConn) Send(m *wire.Message) error {
	t0 := now()
	err := c.Conn.Send(m)
	c.rec.event(m.Kind, true, t0, now())
	return err
}

func (c *platformConn) Recv() (*wire.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil {
		t := now()
		c.rec.event(m.Kind, false, t, t)
	}
	return m, err
}

// opener records the moment the first decision slot opened: the first
// slot-1 SlotInfo delivered to any agent. The first caller also runs
// onOpen (loop-start snapshots).
type opener struct {
	t      atomic.Int64
	onOpen func()
}

func (o *opener) mark() {
	if o.t.CompareAndSwap(0, now()) && o.onOpen != nil {
		o.onOpen()
	}
}

// agentTimes holds one agent's Algorithm 1 latencies, in nanoseconds: best
// response (SlotInfo received to Request sent) and grant handling (Grant
// received to Decision sent). Written only by the agent's goroutine.
type agentTimes struct {
	br, grant []int64
}

// agentConn sits between an agent and its transport. It marks the first
// slot opening and, when times is set, records the agent's compute time
// per message pair; the time spent blocked in Send is excluded.
type agentConn struct {
	distributed.Conn
	open   *opener
	times  *agentTimes
	lastIn int64
}

func (c *agentConn) Recv() (*wire.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return m, err
	}
	if m.Kind == wire.KindSlotInfo && m.SlotInfo.Slot == 1 {
		c.open.mark()
	}
	if c.times != nil {
		c.lastIn = now()
	}
	return m, nil
}

func (c *agentConn) Send(m *wire.Message) error {
	if c.times != nil {
		d := now() - c.lastIn
		switch {
		case m.Kind == wire.KindRequest:
			c.times.br = append(c.times.br, d)
		case m.Kind == wire.KindDecision && m.Decision.Slot > 0:
			c.times.grant = append(c.times.grant, d)
		}
	}
	return c.Conn.Send(m)
}

// --- engine policies ---

// trajectory fingerprints a run: every granted (slot, user, route) in
// order, FNV-1a folded. Two runs with equal fingerprints moved the same
// users to the same routes in the same slots.
type trajectory struct{ h uint64 }

func newTrajectory() trajectory { return trajectory{h: 14695981039346656037} }

func (t *trajectory) add(vals ...int) {
	for _, v := range vals {
		x := uint64(v)
		for i := 0; i < 8; i++ {
			t.h ^= x & 0xff
			t.h *= 1099511628211
			x >>= 8
		}
	}
}

// slotClock wraps the untraced engine policy: it stamps each slot's start
// and fingerprints the moves, and otherwise only delegates.
type slotClock struct {
	inner  engine.Policy
	open   *opener
	starts []int64
	traj   trajectory
}

func (c *slotClock) Name() string { return c.inner.Name() }

func (c *slotClock) SelectAndUpdate(p *core.Profile, s *rng.Stream) (int, []core.UserID) {
	c.open.mark()
	c.starts = append(c.starts, now())
	n, updated := c.inner.SelectAndUpdate(p, s)
	for _, u := range updated {
		c.traj.add(len(c.starts), int(u), p.Choice(u))
	}
	return n, updated
}

// engineSlot is one traced PUU slot: its start, the ends of the collect,
// select and apply steps, and the step counts.
type engineSlot struct {
	start, collected, selected, applied int64
	requests, granted                   int
}

// tracedPUU is Algorithm 3 decomposed through the exported pieces PUU is
// built from — engine.Requests, engine.SelectPUU and Profile.SetChoice —
// so each step is timed. It follows engine.NewPUU step for step, and the
// benchmark checks that it reproduces the untraced trajectory exactly.
type tracedPUU struct {
	open    *opener
	slots   []engineSlot
	applyNs []int64
	traj    trajectory
}

func (t *tracedPUU) Name() string { return "MUUN" }

func (t *tracedPUU) SelectAndUpdate(p *core.Profile, s *rng.Stream) (int, []core.UserID) {
	t.open.mark()
	sl := engineSlot{start: now()}
	reqs := engine.Requests(p, s, true)
	sl.collected = now()
	sl.requests = len(reqs)
	if len(reqs) == 0 {
		sl.selected, sl.applied = sl.collected, sl.collected
		t.slots = append(t.slots, sl)
		return 0, nil
	}
	sel := engine.SelectPUU(reqs)
	sl.selected = now()
	updated := make([]core.UserID, 0, len(sel))
	for _, r := range sel {
		a := now()
		p.SetChoice(r.User, r.Route)
		t.applyNs = append(t.applyNs, now()-a)
		updated = append(updated, r.User)
	}
	sl.applied = now()
	sl.granted = len(updated)
	t.slots = append(t.slots, sl)
	for _, u := range updated {
		t.traj.add(len(t.slots), int(u), p.Choice(u))
	}
	return len(reqs), updated
}
