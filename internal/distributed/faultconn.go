package distributed

import (
	"errors"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/internal/tracing"
	"repro/internal/wire"
)

// This file implements the fault-injection transport of the chaos harness:
// a Conn decorator that, under a seeded schedule, delays messages, fails
// Send/Recv transiently, duplicates deliveries, and crashes the link hard
// mid-protocol. Every injected fault is recorded in a FaultLog so tests can
// assert exactly which faults fired, and the whole schedule is a pure
// function of the seed, so any failing chaos run replays deterministically.

// ErrDisconnected is the permanent failure a crashed FaultConn returns. It
// is deliberately NOT transient: retry layers pass it through so the agent
// loop dies, and the chaos harness restarts the agent through the
// Hello{Resume} reconnect path.
var ErrDisconnected = errors.New("distributed: connection crashed (injected fault)")

// FaultKind enumerates the injectable fault classes.
type FaultKind int

// Fault classes, in the order they are applied to an operation.
const (
	// FaultDisconnect is a hard crash of the link: every later operation
	// fails with ErrDisconnected until Reset.
	FaultDisconnect FaultKind = iota
	// FaultSendErr is a transient Send failure; the message is not sent.
	FaultSendErr
	// FaultRecvErr is a transient Recv failure; no message is consumed.
	FaultRecvErr
	// FaultDup delivers an outgoing message twice (at-least-once link).
	FaultDup
	// FaultDelay holds a message for a random latency before delivery.
	FaultDelay
	numFaultKinds
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultDisconnect:
		return "disconnect"
	case FaultSendErr:
		return "send-error"
	case FaultRecvErr:
		return "recv-error"
	case FaultDup:
		return "duplicate"
	case FaultDelay:
		return "delay"
	}
	return "unknown"
}

// FaultEvent records one injected fault for post-run assertions.
type FaultEvent struct {
	Kind FaultKind
	// Op is "send" or "recv".
	Op string
	// Msg is the kind of the message involved, when one was in hand
	// (send-side faults; KindInvalid for recv-side faults injected before a
	// message was read).
	Msg wire.Kind
}

// FaultLog collects the faults a FaultConn injected. Safe for concurrent
// use; one log may be shared by several connections to aggregate a whole
// run.
type FaultLog struct {
	mu     sync.Mutex
	events []FaultEvent
	counts [numFaultKinds]int
}

func (l *FaultLog) record(e FaultEvent) {
	// Mirror every injected fault into the default telemetry registry so a
	// chaos run is visible in the /metrics snapshot even without a log.
	faultsTotal[e.Kind].Inc()
	if l == nil {
		return
	}
	l.mu.Lock()
	l.events = append(l.events, e)
	l.counts[e.Kind]++
	l.mu.Unlock()
}

// Events returns a copy of all recorded fault events in injection order.
func (l *FaultLog) Events() []FaultEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]FaultEvent(nil), l.events...)
}

// Count returns how many faults of the given kind fired.
func (l *FaultLog) Count(kind FaultKind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[kind]
}

// Total returns the total number of injected faults.
func (l *FaultLog) Total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, c := range l.counts {
		n += c
	}
	return n
}

// Counts returns a map of fault kind to fire count (only nonzero entries).
func (l *FaultLog) Counts() map[FaultKind]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[FaultKind]int{}
	for k, c := range l.counts {
		if c > 0 {
			out[FaultKind(k)] = c
		}
	}
	return out
}

// FaultProfile parameterizes a FaultConn's scheduled misbehavior. The zero
// value injects nothing.
type FaultProfile struct {
	// SendErrProb / RecvErrProb are per-operation probabilities of a
	// transient failure (retryable; the message is not lost, merely the
	// attempt).
	SendErrProb, RecvErrProb float64
	// DupProb duplicates an outgoing message, exercising at-least-once
	// delivery and the receiver's dedup layer.
	DupProb float64
	// DelayProb sleeps a uniform duration in [DelayMin, DelayMax] before an
	// operation completes, injecting asynchrony.
	DelayProb          float64
	DelayMin, DelayMax time.Duration
	// DisconnectAfterOps hard-crashes the connection once this many
	// operations (sends + recvs) have been attempted; 0 means never. After
	// the crash every operation fails with ErrDisconnected until Reset.
	DisconnectAfterOps int
}

// FaultConn wraps a Conn and injects faults per a FaultProfile under a
// seeded deterministic schedule. The send and receive paths draw from
// independent RNG streams, so the schedule does not depend on how sends and
// receives interleave — a requirement for per-seed reproducibility.
//
// Crash semantics: a disconnect fails the *decorator*, not the wrapped
// transport. The underlying connection stays open, so the peer keeps
// talking into the buffer and a restarted incarnation can Reset and resume
// on the same link — modeling a process crash with a stable network path.
type FaultConn struct {
	inner   Conn
	profile FaultProfile
	log     *FaultLog
	tr      *tracing.Tracer
	user    int

	mu      sync.Mutex
	sendRnd *rng.Stream
	recvRnd *rng.Stream
	ops     int
	down    bool
}

// NewFaultConn decorates inner with seeded fault injection. log may be nil
// (faults are then injected but unrecorded).
func NewFaultConn(inner Conn, profile FaultProfile, seed uint64, log *FaultLog) *FaultConn {
	master := rng.New(seed)
	return &FaultConn{
		inner:   inner,
		profile: profile,
		log:     log,
		sendRnd: master.ChildN(0),
		recvRnd: master.ChildN(1),
	}
}

// WithTracer mirrors every injected fault into tr as a KindFault event for
// user's link (also opening the tracer's fault window, which excuses
// transient potential drops). Returns c for chaining; a nil tracer is a
// no-op. Call before the connection is in use.
func (c *FaultConn) WithTracer(tr *tracing.Tracer, user int) *FaultConn {
	c.tr = tr
	c.user = user
	return c
}

// recordFault logs one injected fault and mirrors it into the tracer.
func (c *FaultConn) recordFault(e FaultEvent) {
	c.log.record(e)
	c.tr.RecordFault(tracing.SpanContext{}, c.user, int(e.Kind))
}

// Reset revives a crashed connection for a new incarnation: clears the
// down flag, zeroes the operation counter, and installs the next crash
// point (0 = never crash again). The seeded RNG streams continue, so the
// full fault schedule across incarnations is still a function of the seed.
func (c *FaultConn) Reset(disconnectAfterOps int) {
	c.mu.Lock()
	c.down = false
	c.ops = 0
	c.profile.DisconnectAfterOps = disconnectAfterOps
	c.mu.Unlock()
}

// Down reports whether the connection is currently crashed.
func (c *FaultConn) Down() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down
}

// countOp advances the operation counter and fires the scheduled
// disconnect. Callers hold c.mu.
func (c *FaultConn) countOp(op string, msg wire.Kind) bool {
	if c.down {
		return false
	}
	c.ops++
	if c.profile.DisconnectAfterOps > 0 && c.ops >= c.profile.DisconnectAfterOps {
		c.down = true
		c.recordFault(FaultEvent{Kind: FaultDisconnect, Op: op, Msg: msg})
		return false
	}
	return true
}

// delay computes an injected latency under the given stream; sleeping
// happens outside the lock.
func (c *FaultConn) delayLocked(s *rng.Stream, op string, msg wire.Kind) time.Duration {
	if c.profile.DelayProb <= 0 || !s.Bool(c.profile.DelayProb) {
		return 0
	}
	c.recordFault(FaultEvent{Kind: FaultDelay, Op: op, Msg: msg})
	lo, hi := c.profile.DelayMin, c.profile.DelayMax
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(s.Float64()*float64(hi-lo))
}

// Send applies the scheduled send-side faults, then forwards the message
// (possibly twice).
func (c *FaultConn) Send(m *wire.Message) error {
	c.mu.Lock()
	if !c.countOp("send", m.Kind) {
		c.mu.Unlock()
		return ErrDisconnected
	}
	if c.profile.SendErrProb > 0 && c.sendRnd.Bool(c.profile.SendErrProb) {
		c.recordFault(FaultEvent{Kind: FaultSendErr, Op: "send", Msg: m.Kind})
		c.mu.Unlock()
		return &TransientError{Op: "send", Err: errors.New("injected send fault")}
	}
	dup := c.profile.DupProb > 0 && c.sendRnd.Bool(c.profile.DupProb)
	d := c.delayLocked(c.sendRnd, "send", m.Kind)
	c.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	if err := c.inner.Send(m); err != nil {
		return err
	}
	if dup {
		c.recordFault(FaultEvent{Kind: FaultDup, Op: "send", Msg: m.Kind})
		cp := *m // shallow copy; payloads are read-only after send
		return c.inner.Send(&cp)
	}
	return nil
}

// Recv applies the scheduled receive-side faults, then reads from the
// wrapped transport. Injected recv errors fire before the read, so no
// message is ever lost to them — a retry will pick it up.
func (c *FaultConn) Recv() (*wire.Message, error) {
	c.mu.Lock()
	if !c.countOp("recv", wire.KindInvalid) {
		c.mu.Unlock()
		return nil, ErrDisconnected
	}
	if c.profile.RecvErrProb > 0 && c.recvRnd.Bool(c.profile.RecvErrProb) {
		c.recordFault(FaultEvent{Kind: FaultRecvErr, Op: "recv", Msg: wire.KindInvalid})
		c.mu.Unlock()
		return nil, &TransientError{Op: "recv", Err: errors.New("injected recv fault")}
	}
	d := c.delayLocked(c.recvRnd, "recv", wire.KindInvalid)
	c.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	// The blocking read happens outside the lock so a concurrent Send (a
	// full-duplex user writing while its reader goroutine is parked here)
	// is never serialized behind a parked Recv. Crashes fire only at operation
	// entry, so a message read here is always delivered, never lost.
	return c.inner.Recv()
}

// Close forwards to the wrapped transport.
func (c *FaultConn) Close() error { return c.inner.Close() }
