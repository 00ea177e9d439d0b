// Package distributed implements the paper's system as genuinely
// distributed code: the platform (Algorithm 2) and every user agent
// (Algorithm 1) run as independent goroutines — or separate processes over
// TCP — exchanging only the wire messages of package wire. An agent sees
// nothing but its own recommended routes, platform-computed route costs,
// and the participant counts of tasks on its own routes; it computes its
// best responses locally.
package distributed

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/tracing"
	"repro/internal/wire"
)

// Conn is a reliable, ordered, bidirectional message connection.
type Conn interface {
	Send(*wire.Message) error
	Recv() (*wire.Message, error)
	Close() error
}

// --- In-process channel transport ---

type chanConn struct {
	out  chan<- *wire.Message
	in   <-chan *wire.Message
	once *sync.Once
	done chan struct{}
}

// ChanPair returns the two ends of an in-process connection with the given
// buffer depth. Closing either end tears down the connection for both, like
// a socket close.
func ChanPair(buf int) (Conn, Conn) {
	ab := make(chan *wire.Message, buf)
	ba := make(chan *wire.Message, buf)
	done := make(chan struct{})
	once := new(sync.Once)
	a := &chanConn{out: ab, in: ba, once: once, done: done}
	b := &chanConn{out: ba, in: ab, once: once, done: done}
	return a, b
}

func (c *chanConn) Send(m *wire.Message) error {
	if err := m.Validate(); err != nil {
		return err
	}
	select {
	case c.out <- m:
		return nil
	case <-c.done:
		return fmt.Errorf("distributed: send on closed connection")
	}
}

func (c *chanConn) Recv() (*wire.Message, error) {
	select {
	case m := <-c.in:
		if m == nil {
			return nil, fmt.Errorf("distributed: connection closed by peer")
		}
		return m, nil
	case <-c.done:
		return nil, fmt.Errorf("distributed: recv on closed connection")
	}
}

func (c *chanConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

// --- TCP (binary codec) transport ---

type netConn struct {
	nc    net.Conn
	codec *wire.BinaryCodec
	wmu   sync.Mutex
}

// NewNetConn wraps a net.Conn with the binary codec (see internal/wire and
// docs/WIRE.md; the gob codec is retained only as the differential-testing
// oracle).
func NewNetConn(nc net.Conn) Conn {
	return &netConn{nc: nc, codec: wire.NewBinaryCodec(nc, nc)}
}

func (c *netConn) Send(m *wire.Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.codec.Encode(m)
}

func (c *netConn) Recv() (*wire.Message, error) { return c.codec.Decode() }

func (c *netConn) Close() error { return c.nc.Close() }

// --- Sequence numbering and duplicate suppression ---

// seqConn stamps outgoing messages with increasing sequence numbers (and
// the sender's epoch) and drops incoming duplicates. This makes the
// protocol safe under at-least-once delivery, which the failure-injection
// transport in faultconn.go exploits.
//
// Duplicate suppression keeps one high-water mark per sender incarnation
// (epoch): a message whose Seq does not exceed the highest Seq already
// delivered from its epoch is a duplicate. That relies on FIFO delivery
// within an epoch, so Send stamps and forwards under one lock, making wire
// order equal Seq order. Keying the marks on the epoch lets a
// crashed-and-restarted agent reuse low sequence numbers without its fresh
// messages being mistaken for duplicates of its previous life, and the
// state stays one entry per incarnation however long the run.
type seqConn struct {
	inner Conn
	from  int
	epoch uint32

	// smu serializes stamping and sending. It is separate from rmu so a
	// Recv never waits behind a Send blocked on a synchronous transport.
	smu     sync.Mutex
	nextSeq uint64

	rmu sync.Mutex
	// high[e] is the highest Seq delivered from epoch e.
	high map[uint32]uint64
}

// WithSeq wraps a connection with sequence stamping (as sender identity
// `from`; use -1 for the platform) and duplicate suppression.
func WithSeq(inner Conn, from int) Conn { return WithSeqEpoch(inner, from, 0) }

// WithSeqEpoch is WithSeq for a specific sender incarnation: a restarted
// agent passes its restart count so its sequence numbers live in a fresh
// dedup namespace on the receiving side.
func WithSeqEpoch(inner Conn, from int, epoch uint32) Conn {
	return &seqConn{inner: inner, from: from, epoch: epoch, high: make(map[uint32]uint64)}
}

func (c *seqConn) Send(m *wire.Message) error {
	c.smu.Lock()
	defer c.smu.Unlock()
	c.nextSeq++
	m.Seq = c.nextSeq
	m.Epoch = c.epoch
	m.From = c.from
	return c.inner.Send(m)
}

func (c *seqConn) Recv() (*wire.Message, error) {
	for {
		m, err := c.inner.Recv()
		if err != nil {
			return nil, err
		}
		c.rmu.Lock()
		// The first message of an epoch is always fresh, even with Seq 0
		// (an unstamped sender).
		hw, ok := c.high[m.Epoch]
		dup := ok && m.Seq <= hw
		if !dup {
			c.high[m.Epoch] = m.Seq
		}
		c.rmu.Unlock()
		if dup {
			continue // duplicate delivery: drop
		}
		return m, nil
	}
}

func (c *seqConn) Close() error { return c.inner.Close() }

// --- Transient errors, retry, and receive watchdog ---

// TransientError marks a failure worth retrying: an injected fault, a
// timeout, a momentary link hiccup. Permanent failures (closed connection,
// crashed peer) are returned as ordinary errors and abort retry loops.
type TransientError struct {
	Op  string // "send" or "recv"
	Err error
}

// Error implements error.
func (e *TransientError) Error() string {
	return fmt.Sprintf("distributed: transient %s failure: %v", e.Op, e.Err)
}

// Unwrap exposes the cause.
func (e *TransientError) Unwrap() error { return e.Err }

// IsTransient reports whether err is worth retrying: a TransientError or a
// net.Error timeout (as produced by read deadlines on TCP transports).
func IsTransient(err error) bool {
	var te *TransientError
	if errors.As(err, &te) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// RetryPolicy bounds the retry loop of WithRetry. The zero value disables
// retrying (one attempt, no backoff).
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per operation (>= 1).
	MaxAttempts int
	// BaseDelay is the backoff after the first failure; it doubles per
	// retry up to MaxDelay.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// DefaultRetry is a policy suitable for the chaos tests: enough attempts to
// ride out multi-percent transient-fault rates without masking real bugs.
var DefaultRetry = RetryPolicy{MaxAttempts: 12, BaseDelay: 100 * time.Microsecond, MaxDelay: 5 * time.Millisecond}

type retryConn struct {
	inner  Conn
	policy RetryPolicy
	tr     *tracing.Tracer
	user   int
}

// WithRetry wraps a connection with bounded retry-with-backoff on transient
// Send/Recv failures. Non-transient errors pass through immediately.
func WithRetry(inner Conn, policy RetryPolicy) Conn {
	return WithRetryTraced(inner, policy, nil, -1)
}

// WithRetryTraced is WithRetry with every absorbed transient failure also
// recorded as a retry event on tr (feeding its retry-storm detector). The
// user identifies the link; a nil tracer degrades to plain WithRetry.
func WithRetryTraced(inner Conn, policy RetryPolicy, tr *tracing.Tracer, user int) Conn {
	if policy.MaxAttempts < 1 {
		policy.MaxAttempts = 1
	}
	return &retryConn{inner: inner, policy: policy, tr: tr, user: user}
}

// Retry-event op codes (Event.A on KindRetry events).
const (
	retryOpSend = 0
	retryOpRecv = 1
)

func (c *retryConn) do(op int, ctx tracing.SpanContext, f func() error) error {
	delay := c.policy.BaseDelay
	var err error
	for attempt := 0; attempt < c.policy.MaxAttempts; attempt++ {
		if err = f(); err == nil || !IsTransient(err) {
			return err
		}
		retryAttemptsTotal.Inc()
		c.tr.RecordRetry(ctx, c.user, op, attempt+1)
		if attempt == c.policy.MaxAttempts-1 {
			break
		}
		if delay > 0 {
			time.Sleep(delay)
			delay *= 2
			if c.policy.MaxDelay > 0 && delay > c.policy.MaxDelay {
				delay = c.policy.MaxDelay
			}
		}
	}
	retryGiveupsTotal.Inc()
	return fmt.Errorf("distributed: giving up after %d attempts: %w", c.policy.MaxAttempts, err)
}

func (c *retryConn) Send(m *wire.Message) error {
	return c.do(retryOpSend, TraceContext(m), func() error { return c.inner.Send(m) })
}

func (c *retryConn) Recv() (*wire.Message, error) {
	var m *wire.Message
	err := c.do(retryOpRecv, tracing.SpanContext{}, func() error {
		var e error
		m, e = c.inner.Recv()
		return e
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

func (c *retryConn) Close() error { return c.inner.Close() }
