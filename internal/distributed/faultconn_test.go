package distributed

import (
	"errors"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestFaultConnSendErrors(t *testing.T) {
	a, b := ChanPair(256)
	defer b.Close()
	log := &FaultLog{}
	fc := NewFaultConn(a, FaultProfile{SendErrProb: 0.5}, 42, log)
	sent, failed := 0, 0
	for i := 0; i < 200; i++ {
		err := fc.Send(grantMsg(i))
		switch {
		case err == nil:
			sent++
		case IsTransient(err):
			failed++
		default:
			t.Fatalf("unexpected permanent error: %v", err)
		}
	}
	if failed == 0 || sent == 0 {
		t.Fatalf("expected a mix of failures and successes, got %d failed / %d sent", failed, sent)
	}
	if got := log.Count(FaultSendErr); got != failed {
		t.Errorf("log recorded %d send errors, observed %d", got, failed)
	}
	// A transient send failure must not deliver the message.
	got := 0
	for {
		if _, err := recvNonBlocking(b); err != nil {
			break
		}
		got++
	}
	if got != sent {
		t.Errorf("delivered %d messages, want %d (failed sends must not deliver)", got, sent)
	}
}

// recvNonBlocking drains one message if immediately available.
func recvNonBlocking(c Conn) (*wire.Message, error) {
	type res struct {
		m   *wire.Message
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
	case <-time.After(5 * time.Millisecond):
		return nil, errors.New("empty")
	}
}

func TestFaultConnRecvErrorsLoseNothing(t *testing.T) {
	a, b := ChanPair(256)
	defer a.Close()
	log := &FaultLog{}
	fc := NewFaultConn(b, FaultProfile{RecvErrProb: 0.4}, 7, log)
	const n = 100
	for i := 0; i < n; i++ {
		if err := a.Send(grantMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Every message must eventually arrive, in order, despite injected
	// recv failures — they fire before the read, so nothing is consumed.
	for i := 0; i < n; i++ {
		for {
			m, err := fc.Recv()
			if err != nil {
				if !IsTransient(err) {
					t.Fatalf("message %d: permanent error %v", i, err)
				}
				continue
			}
			if m.Grant.Slot != i {
				t.Fatalf("message %d delivered out of order as %d", i, m.Grant.Slot)
			}
			break
		}
	}
	if log.Count(FaultRecvErr) == 0 {
		t.Error("no recv faults fired at 40% probability over 100 reads")
	}
}

func TestFaultConnDuplicates(t *testing.T) {
	a, b := ChanPair(256)
	defer b.Close()
	log := &FaultLog{}
	fc := NewFaultConn(a, FaultProfile{DupProb: 0.5}, 3, log)
	const n = 100
	for i := 0; i < n; i++ {
		if err := fc.Send(grantMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	dups := log.Count(FaultDup)
	if dups == 0 {
		t.Fatal("no duplicates injected at 50% probability")
	}
	delivered := 0
	for {
		if _, err := recvNonBlocking(b); err != nil {
			break
		}
		delivered++
	}
	if delivered != n+dups {
		t.Errorf("delivered %d messages, want %d originals + %d dups", delivered, n, dups)
	}
}

func TestFaultConnDisconnectAndReset(t *testing.T) {
	a, b := ChanPair(64)
	defer b.Close()
	log := &FaultLog{}
	fc := NewFaultConn(a, FaultProfile{DisconnectAfterOps: 3}, 1, log)
	for i := 0; i < 2; i++ {
		if err := fc.Send(grantMsg(i)); err != nil {
			t.Fatalf("op %d failed before the crash point: %v", i, err)
		}
	}
	if err := fc.Send(grantMsg(2)); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("op 3 = %v, want ErrDisconnected", err)
	}
	if !fc.Down() {
		t.Fatal("conn not down after crash")
	}
	if IsTransient(ErrDisconnected) {
		t.Fatal("ErrDisconnected must not be transient (retry would mask the crash)")
	}
	// Every op fails while down.
	if err := fc.Send(grantMsg(9)); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("send while down = %v", err)
	}
	if _, err := fc.Recv(); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("recv while down = %v", err)
	}
	if log.Count(FaultDisconnect) != 1 {
		t.Errorf("logged %d disconnects, want 1", log.Count(FaultDisconnect))
	}
	// Reset revives the link for the next incarnation.
	fc.Reset(0)
	if fc.Down() {
		t.Fatal("conn still down after Reset")
	}
	if err := fc.Send(grantMsg(3)); err != nil {
		t.Fatalf("send after Reset: %v", err)
	}
	for i := 0; i < 10; i++ { // no further crash scheduled
		if err := fc.Send(grantMsg(4 + i)); err != nil {
			t.Fatalf("post-reset op %d: %v", i, err)
		}
	}
}

func TestFaultConnDeterministicSchedule(t *testing.T) {
	run := func() []FaultEvent {
		a, b := ChanPair(256)
		defer b.Close()
		log := &FaultLog{}
		fc := NewFaultConn(a, FaultProfile{SendErrProb: 0.2, DupProb: 0.2}, 99, log)
		for i := 0; i < 50; i++ {
			_ = fc.Send(grantMsg(i))
		}
		return log.Events()
	}
	e1, e2 := run(), run()
	if len(e1) != len(e2) {
		t.Fatalf("schedules differ in length: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, e1[i], e2[i])
		}
	}
	if len(e1) == 0 {
		t.Fatal("no faults fired")
	}
}

func TestWithRetryRidesOutTransients(t *testing.T) {
	a, b := ChanPair(64)
	defer b.Close()
	fc := NewFaultConn(a, FaultProfile{SendErrProb: 0.5}, 5, nil)
	rc := WithRetry(fc, RetryPolicy{MaxAttempts: 50, BaseDelay: 0})
	for i := 0; i < 50; i++ {
		if err := rc.Send(grantMsg(i)); err != nil {
			t.Fatalf("retry failed to ride out a 50%% fault rate: %v", err)
		}
	}
}

func TestWithRetryGivesUp(t *testing.T) {
	a, b := ChanPair(8)
	defer b.Close()
	fc := NewFaultConn(a, FaultProfile{SendErrProb: 1.0}, 5, nil)
	rc := WithRetry(fc, RetryPolicy{MaxAttempts: 3, BaseDelay: 0})
	err := rc.Send(grantMsg(0))
	if err == nil {
		t.Fatal("retry succeeded against a 100% fault rate")
	}
	if !IsTransient(err) {
		t.Fatalf("exhausted retry should surface the transient cause, got %v", err)
	}
}

func TestWithRetryPassesPermanentErrors(t *testing.T) {
	a, b := ChanPair(8)
	defer b.Close()
	fc := NewFaultConn(a, FaultProfile{DisconnectAfterOps: 1}, 5, nil)
	rc := WithRetry(fc, RetryPolicy{MaxAttempts: 10, BaseDelay: 0})
	if err := rc.Send(grantMsg(0)); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("permanent error transformed by retry: %v", err)
	}
}

func TestEpochSeqDedup(t *testing.T) {
	a, b := ChanPair(32)
	recv := WithSeq(b, -1)
	// Epoch 0 incarnation sends two messages.
	s0 := WithSeqEpoch(a, 3, 0)
	if err := s0.Send(grantMsg(1)); err != nil {
		t.Fatal(err)
	}
	if err := s0.Send(grantMsg(2)); err != nil {
		t.Fatal(err)
	}
	// Restarted incarnation reuses low sequence numbers under epoch 1; its
	// messages must NOT be dropped as duplicates of epoch 0's.
	s1 := WithSeqEpoch(a, 3, 1)
	if err := s1.Send(grantMsg(3)); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for _, w := range want {
		m, err := recv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Grant.Slot != w {
			t.Fatalf("got slot %d, want %d", m.Grant.Slot, w)
		}
	}
}
