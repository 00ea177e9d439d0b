package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"
)

// muxPair returns two mux sessions joined by an in-memory pipe.
func muxPair(t *testing.T, opts MuxOptions) (*Mux, *Mux) {
	t.Helper()
	a, b := net.Pipe()
	ma := NewMux(a, opts)
	mb := NewMux(b, opts)
	t.Cleanup(func() { ma.Close(); mb.Close() })
	return ma, mb
}

func grantMsg(user, slot int) *Message {
	return &Message{Kind: KindGrant, Seq: uint64(slot), From: user, Grant: &Grant{Slot: slot}}
}

// recvTimeout guards pipe tests against deadlocks: a Recv that should
// complete must do so promptly.
func recvTimeout(t *testing.T, c *MuxChannel) (*Message, error) {
	t.Helper()
	type res struct {
		m   *Message
		err error
	}
	ch := make(chan res, 1)
	go func() {
		m, err := c.Recv()
		ch <- res{m, err}
	}()
	select {
	case r := <-ch:
		return r.m, r.err
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not complete")
		return nil, nil
	}
}

// TestMuxRoundTrip drives several channels concurrently in both directions
// over one shared stream and checks every message arrives on the right
// channel, in per-channel order.
func TestMuxRoundTrip(t *testing.T) {
	ma, mb := muxPair(t, MuxOptions{})
	const channels, msgs = 5, 40
	var wg sync.WaitGroup
	errc := make(chan error, 2*channels)
	for id := uint32(0); id < channels; id++ {
		ca, err := ma.Channel(id)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := mb.Channel(id)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func(id uint32, c *MuxChannel) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				if err := c.Send(grantMsg(int(id), i)); err != nil {
					errc <- fmt.Errorf("channel %d send %d: %w", id, i, err)
					return
				}
			}
		}(id, ca)
		go func(id uint32, c *MuxChannel) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				m, err := c.Recv()
				if err != nil {
					errc <- fmt.Errorf("channel %d recv %d: %w", id, i, err)
					return
				}
				if m.From != int(id) || m.Grant.Slot != i {
					errc <- fmt.Errorf("channel %d message %d: got from=%d slot=%d", id, i, m.From, m.Grant.Slot)
					return
				}
			}
		}(id, cb)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestMuxAccept checks the no-handshake open: the first frame on an
// unclaimed channel surfaces it via Accept on the other side.
func TestMuxAccept(t *testing.T) {
	ma, mb := muxPair(t, MuxOptions{})
	ca, err := ma.Channel(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.Send(grantMsg(7, 1)); err != nil {
		t.Fatal(err)
	}
	cb, err := mb.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if cb.ID() != 7 {
		t.Fatalf("accepted channel %d, want 7", cb.ID())
	}
	m, err := recvTimeout(t, cb)
	if err != nil || m.Grant.Slot != 1 {
		t.Fatalf("recv = %+v, %v", m, err)
	}
}

// TestMuxFairDrain proves round-robin draining: with channel A's queue
// loaded and one frame queued on channel B, B's frame goes out second, not
// after all of A's.
func TestMuxFairDrain(t *testing.T) {
	client, server := net.Pipe()
	m := NewMux(client, MuxOptions{})
	defer m.Close()
	ca, err := m.Channel(0)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := m.Channel(1)
	if err != nil {
		t.Fatal(err)
	}
	// No reader on the server side yet, so the writer parks inside the
	// first Write; every later Send is queued before draining starts.
	for i := 0; i < 3; i++ {
		if err := ca.Send(grantMsg(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cb.Send(grantMsg(1, 0)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(server)
	var buf []byte
	var order []uint32
	for i := 0; i < 4; i++ {
		id, typ, _, nbuf, err := readMuxFrame(br, buf, 1<<20)
		buf = nbuf
		if err != nil || typ != muxFrameData {
			t.Fatalf("frame %d: typ=%d err=%v", i, typ, err)
		}
		order = append(order, id)
	}
	// A's first frame was in flight before B queued anything; after that the
	// round-robin must serve B before A's remaining backlog.
	want := []uint32{0, 1, 0, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("drain order %v, want %v", order, want)
		}
	}
}

// TestMuxBackpressure checks Send blocks on a full channel queue without
// stalling siblings, and unblocks once the writer drains.
func TestMuxBackpressure(t *testing.T) {
	client, server := net.Pipe()
	m := NewMux(client, MuxOptions{SendQueue: 2})
	defer m.Close()
	ca, err := m.Channel(0)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := m.Channel(1)
	if err != nil {
		t.Fatal(err)
	}
	// No reader: first frame parks the writer, two more fill A's queue.
	for i := 0; i < 3; i++ {
		if err := ca.Send(grantMsg(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() { blocked <- ca.Send(grantMsg(0, 3)) }()
	select {
	case err := <-blocked:
		t.Fatalf("send on full queue returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	// The sibling channel's queue is empty; its Send must not block.
	done := make(chan error, 1)
	go func() { done <- cb.Send(grantMsg(1, 0)) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("sibling send: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sibling send blocked behind a full sibling queue")
	}
	// Draining the stream releases the parked Send.
	go io.Copy(io.Discard, server)
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatalf("unblocked send: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send did not unblock after drain")
	}
}

// TestMuxStallIsolation is the one-channel-stalls-don't-block-siblings
// guarantee: a flooded channel whose consumer never reads fails alone with
// ErrRecvOverflow while a sibling keeps ping-ponging.
func TestMuxStallIsolation(t *testing.T) {
	const highWater = 4
	ma, mb := muxPair(t, MuxOptions{RecvHighWater: highWater})
	sa, err := ma.Channel(0) // stalled channel, sender side
	if err != nil {
		t.Fatal(err)
	}
	sb, err := mb.Channel(0) // stalled channel, consumer never reads
	if err != nil {
		t.Fatal(err)
	}
	pa, err := ma.Channel(1) // healthy sibling
	if err != nil {
		t.Fatal(err)
	}
	pb, err := mb.Channel(1)
	if err != nil {
		t.Fatal(err)
	}
	// Flood the stalled channel well past the high-water mark.
	for i := 0; i < highWater+4; i++ {
		if err := sa.Send(grantMsg(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	// The sibling keeps working throughout: every ping forces the shared
	// writer and reader past the flooded channel's frames.
	for i := 0; i < 20; i++ {
		if err := pa.Send(grantMsg(1, i)); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
		m, err := recvTimeout(t, pb)
		if err != nil || m.Grant.Slot != i {
			t.Fatalf("pong %d: %+v, %v", i, m, err)
		}
	}
	// The stalled channel delivers what was queued below the high-water
	// mark, then fails with ErrRecvOverflow — and only that channel fails.
	for i := 0; i < highWater; i++ {
		m, err := recvTimeout(t, sb)
		if err != nil || m.Grant.Slot != i {
			t.Fatalf("queued message %d: %+v, %v", i, m, err)
		}
	}
	if _, err := recvTimeout(t, sb); !errors.Is(err, ErrRecvOverflow) {
		t.Fatalf("stalled channel error = %v, want ErrRecvOverflow", err)
	}
	if err := ma.Err(); err != nil {
		t.Fatalf("session failed: %v", err)
	}
	if err := pa.Send(grantMsg(1, 99)); err != nil {
		t.Fatalf("sibling send after overflow: %v", err)
	}
	if m, err := recvTimeout(t, pb); err != nil || m.Grant.Slot != 99 {
		t.Fatalf("sibling recv after overflow: %+v, %v", m, err)
	}
}

// TestMuxChannelClose checks per-channel teardown: queued messages drain
// first, the peer then sees a closed-by-peer error, and sibling channels
// are untouched.
func TestMuxChannelClose(t *testing.T) {
	ma, mb := muxPair(t, MuxOptions{})
	ca, err := ma.Channel(0)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := mb.Channel(0)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := ma.Channel(1)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := mb.Channel(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.Send(grantMsg(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := ca.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ca.Close(); err != nil {
		t.Fatal("second close:", err)
	}
	// The in-flight message drains before the close surfaces.
	if m, err := recvTimeout(t, cb); err != nil || m.Grant.Slot != 1 {
		t.Fatalf("drain before close: %+v, %v", m, err)
	}
	if _, err := recvTimeout(t, cb); err == nil {
		t.Fatal("recv on peer-closed channel succeeded")
	}
	if err := cb.Send(grantMsg(0, 2)); !errors.Is(err, ErrChannelClosed) {
		t.Fatalf("send to peer-closed channel = %v, want ErrChannelClosed", err)
	}
	if err := ca.Send(grantMsg(0, 3)); !errors.Is(err, ErrChannelClosed) {
		t.Fatalf("send on locally closed channel = %v, want ErrChannelClosed", err)
	}
	// The sibling is unaffected.
	if err := pa.Send(grantMsg(1, 5)); err != nil {
		t.Fatal(err)
	}
	if m, err := recvTimeout(t, pb); err != nil || m.Grant.Slot != 5 {
		t.Fatalf("sibling after close: %+v, %v", m, err)
	}
}

// TestMuxSessionClose checks Close fails everything on both sides: local
// channels report ErrMuxClosed, and the peer's session dies on the broken
// stream.
func TestMuxSessionClose(t *testing.T) {
	ma, mb := muxPair(t, MuxOptions{})
	ca, err := ma.Channel(0)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := mb.Channel(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.Send(grantMsg(0, 1)); err != nil {
		t.Fatal(err)
	}
	if m, err := recvTimeout(t, cb); err != nil || m.Grant.Slot != 1 {
		t.Fatalf("pre-close recv: %+v, %v", m, err)
	}
	ma.Close()
	if err := ca.Send(grantMsg(0, 2)); !errors.Is(err, ErrMuxClosed) {
		t.Fatalf("send after close = %v, want ErrMuxClosed", err)
	}
	if _, err := recvTimeout(t, ca); !errors.Is(err, ErrMuxClosed) {
		t.Fatalf("recv after close = %v, want ErrMuxClosed", err)
	}
	if _, err := ma.Channel(1); !errors.Is(err, ErrMuxClosed) {
		t.Fatalf("open after close = %v, want ErrMuxClosed", err)
	}
	// The peer's reader hits the closed pipe and fails its session too.
	if _, err := recvTimeout(t, cb); err == nil {
		t.Fatal("peer recv after session close succeeded")
	}
	if _, err := mb.Accept(); err == nil {
		t.Fatal("peer accept after session close succeeded")
	}
}

// TestMuxHostileChannelID checks that a peer announcing a channel ID above
// the configured bound kills the session instead of allocating for it.
func TestMuxHostileChannelID(t *testing.T) {
	client, server := net.Pipe()
	m := NewMux(client, MuxOptions{MaxChannelID: 8})
	defer m.Close()
	if _, err := m.Channel(9); err == nil {
		t.Fatal("local channel above bound accepted")
	}
	c, err := m.Channel(1)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-write a frame for channel 1000 on the raw side.
	frame, err := AppendFrame([]byte{0xe8, 0x07, muxFrameData}, grantMsg(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	go server.Write(frame)
	if _, err := recvTimeout(t, c); err == nil {
		t.Fatal("session survived hostile channel id")
	}
}

// TestIsFrameHead checks the classifier that lets one listener take both
// kinds of agent connection: the first FrameHeadLen bytes of a plain Hello
// frame are a frame head, and those of a mux session opening with a Hello
// data frame never are, whatever the channel ID.
func TestIsFrameHead(t *testing.T) {
	hellos := map[string]*Message{
		"minimal": {Kind: KindHello, Hello: &Hello{}},
		"maximal": {
			Kind: KindHello, Seq: math.MaxUint64, Epoch: math.MaxUint32, From: math.MaxInt64,
			TraceID: math.MaxUint64, SpanID: math.MaxUint64, TraceFlags: math.MaxUint8,
			Hello: &Hello{User: math.MaxInt64, Resume: true},
		},
	}
	for name, hello := range hellos {
		plain, err := AppendFrame(nil, hello)
		if err != nil {
			t.Fatal(err)
		}
		if !IsFrameHead(plain[:FrameHeadLen]) {
			t.Errorf("%s plain hello % x not classified as a frame head", name, plain[:FrameHeadLen])
		}
		for _, id := range []uint32{0, 0x63, 0x76, 127, 128, 0x6376, 16383, 16384, 1 << 20} {
			// Capture the session's first bytes as a real mux writes them.
			a, b := net.Pipe()
			m := NewMux(a, MuxOptions{})
			c, err := m.Channel(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Send(hello); err != nil {
				t.Fatal(err)
			}
			head := make([]byte, FrameHeadLen)
			_, err = io.ReadFull(b, head)
			m.Close()
			b.Close()
			if err != nil {
				t.Fatal(err)
			}
			if IsFrameHead(head) {
				t.Errorf("%s mux hello on channel %#x (% x) classified as a plain frame head", name, id, head)
			}
		}
	}
}
