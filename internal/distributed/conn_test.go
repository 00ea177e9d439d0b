package distributed

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

func grantMsg(slot int) *wire.Message {
	return &wire.Message{Kind: wire.KindGrant, Grant: &wire.Grant{Slot: slot}}
}

func TestChanPairDelivery(t *testing.T) {
	a, b := ChanPair(4)
	defer a.Close()
	for i := 0; i < 4; i++ {
		if err := a.Send(grantMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Grant.Slot != i {
			t.Fatalf("message %d out of order: got slot %d", i, m.Grant.Slot)
		}
	}
}

func TestChanPairBidirectional(t *testing.T) {
	a, b := ChanPair(1)
	defer a.Close()
	if err := a.Send(grantMsg(1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(grantMsg(2)); err != nil {
		t.Fatal(err)
	}
	ma, err := a.Recv()
	if err != nil || ma.Grant.Slot != 2 {
		t.Fatalf("a.Recv = %v, %v", ma, err)
	}
	mb, err := b.Recv()
	if err != nil || mb.Grant.Slot != 1 {
		t.Fatalf("b.Recv = %v, %v", mb, err)
	}
}

func TestChanConnRejectsInvalid(t *testing.T) {
	a, _ := ChanPair(1)
	defer a.Close()
	if err := a.Send(&wire.Message{Kind: wire.KindGrant}); err == nil {
		t.Error("invalid message sent successfully")
	}
}

func TestChanPairCloseTearsDownBothEnds(t *testing.T) {
	a, b := ChanPair(0)
	var wg sync.WaitGroup
	wg.Add(2)
	var errA, errB error
	go func() { defer wg.Done(); _, errA = a.Recv() }()
	go func() { defer wg.Done(); errB = b.Send(grantMsg(1)) }()
	a.Close()
	wg.Wait()
	if errA == nil {
		t.Error("Recv survived close")
	}
	// b.Send either completed into the rendezvous before close or failed;
	// the important property is that it returned at all (no deadlock).
	_ = errB
}

func TestFaultyConnAlwaysDuplicates(t *testing.T) {
	a, b := ChanPair(16)
	defer a.Close()
	f := NewFaultConn(a, FaultProfile{DupProb: 1.0}, 1, nil)
	if err := f.Send(grantMsg(7)); err != nil {
		t.Fatal(err)
	}
	m1, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m1.Grant.Slot != 7 || m2.Grant.Slot != 7 {
		t.Fatalf("duplicate delivery wrong: %v / %v", m1.Grant, m2.Grant)
	}
}

func TestFaultyConnNeverDuplicatesAtZero(t *testing.T) {
	a, b := ChanPair(16)
	defer a.Close()
	f := NewFaultConn(a, FaultProfile{}, 1, nil)
	for i := 0; i < 5; i++ {
		if err := f.Send(grantMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Grant.Slot != i {
			t.Fatalf("unexpected duplication at %d", i)
		}
	}
}

func TestSeqConnStampsMonotonically(t *testing.T) {
	a, b := ChanPair(16)
	defer a.Close()
	sa := WithSeq(a, 3)
	for i := 0; i < 5; i++ {
		if err := sa.Send(grantMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	var last uint64
	for i := 0; i < 5; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Seq <= last {
			t.Fatalf("seq not increasing: %d after %d", m.Seq, last)
		}
		if m.From != 3 {
			t.Fatalf("From = %d, want 3", m.From)
		}
		last = m.Seq
	}
}

func TestSeqPlusFaultyEndToEnd(t *testing.T) {
	// Full stack: seq-stamped sender over a duplicating link into a
	// dedup-enabled receiver — every message delivered exactly once, in
	// order.
	a, b := ChanPair(64)
	defer a.Close()
	sender := WithSeq(NewFaultConn(a, FaultProfile{DupProb: 1.0}, 5, nil), -1)
	receiver := WithSeq(b, 0)
	const n = 20
	go func() {
		for i := 0; i < n; i++ {
			if err := sender.Send(grantMsg(i)); err != nil {
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		m, err := receiver.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Grant.Slot != i {
			t.Fatalf("delivery %d: got slot %d", i, m.Grant.Slot)
		}
	}
}

func TestNetConnNoTimeoutStillWorks(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan *wire.Message, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		conn := NewNetConn(nc)
		m, err := conn.Recv()
		if err == nil {
			got <- m
		}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	cc := NewNetConn(client)
	if err := cc.Send(grantMsg(4)); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Grant.Slot != 4 {
			t.Errorf("got slot %d", m.Grant.Slot)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message not delivered")
	}
}
