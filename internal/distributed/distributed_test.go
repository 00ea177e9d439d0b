package distributed

import (
	"errors"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/wire"
)

func randomInstance(seed uint64, users, tasks int) *core.Instance {
	return core.RandomInstance(core.DefaultRandomConfig(users, tasks), rng.New(seed))
}

func profileOf(t *testing.T, in *core.Instance, choices []int) *core.Profile {
	t.Helper()
	p, err := core.NewProfile(in, choices)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestInProcessConvergesToNash(t *testing.T) {
	for _, policy := range []SelectionPolicy{SUU, PUU, Deterministic} {
		for seed := uint64(0); seed < 3; seed++ {
			in := randomInstance(seed, 10, 15)
			stats, err := RunInProcess(in, InProcessOptions{
				Platform:      PlatformConfig{Policy: policy, Seed: seed},
				AgentSeedBase: seed * 131,
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", policy, seed, err)
			}
			if !stats.Converged {
				t.Fatalf("%s seed %d: not converged", policy, seed)
			}
			p := profileOf(t, in, stats.Choices)
			if !p.IsNash() {
				t.Fatalf("%s seed %d: final profile is not a Nash equilibrium", policy, seed)
			}
		}
	}
}

// sequentialReference reproduces the Deterministic distributed run with the
// core primitives only: all users start on route 0; each slot the
// lowest-ID user with a nonempty best route set moves to its first best
// route. The distributed run must match it exactly, slot for slot.
func sequentialReference(in *core.Instance) ([]int, int) {
	choices := make([]int, in.NumUsers())
	p, err := core.NewProfile(in, choices)
	if err != nil {
		panic(err)
	}
	slots := 0
	for {
		moved := false
		for i := 0; i < in.NumUsers(); i++ {
			delta := p.BestResponseSet(core.UserID(i))
			if len(delta) > 0 {
				slots++
				p.SetChoice(core.UserID(i), delta[0])
				moved = true
				break
			}
		}
		if !moved {
			return p.Choices(), slots
		}
	}
}

func TestDeterministicMatchesSequentialReference(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		in := randomInstance(seed, 9, 14)
		wantChoices, wantSlots := sequentialReference(in)
		stats, err := RunInProcess(in, InProcessOptions{
			Platform:      PlatformConfig{Policy: Deterministic, Seed: 1},
			Deterministic: true,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if stats.Slots != wantSlots {
			t.Errorf("seed %d: distributed used %d update slots, reference %d", seed, stats.Slots, wantSlots)
		}
		for i := range wantChoices {
			if stats.Choices[i] != wantChoices[i] {
				t.Fatalf("seed %d: user %d chose %d, reference %d", seed, i, stats.Choices[i], wantChoices[i])
			}
		}
	}
}

// Equivalence of outcomes: the distributed equilibrium's potential equals
// the local maximum the sequential engine would certify (both are Nash; we
// check the distributed potential is a fixed point, i.e. Nash implies no
// better response — already covered — and the total profit is finite and
// realized by the choices).
func TestStatsConsistency(t *testing.T) {
	in := randomInstance(5, 12, 18)
	stats, err := RunInProcess(in, InProcessOptions{
		Platform: PlatformConfig{Policy: PUU, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.RequestsPerSlot) != stats.Slots {
		t.Errorf("RequestsPerSlot len %d != Slots %d", len(stats.RequestsPerSlot), stats.Slots)
	}
	if len(stats.SelectedPerSlot) != stats.Slots {
		t.Errorf("SelectedPerSlot len %d != Slots %d", len(stats.SelectedPerSlot), stats.Slots)
	}
	if len(stats.ContactedPerSlot) != stats.Slots {
		t.Errorf("ContactedPerSlot len %d != Slots %d", len(stats.ContactedPerSlot), stats.Slots)
	}
	for i, c := range stats.ContactedPerSlot {
		if req := stats.RequestsPerSlot[i]; req > c || c > in.NumUsers() {
			t.Errorf("slot %d: %d requests, %d contacted, %d served users", i+1, req, c, in.NumUsers())
		}
	}
	total := 0
	for i, sel := range stats.SelectedPerSlot {
		if sel < 1 {
			t.Errorf("slot %d selected %d users", i, sel)
		}
		if sel > stats.RequestsPerSlot[i] {
			t.Errorf("slot %d selected %d > requests %d", i, sel, stats.RequestsPerSlot[i])
		}
		total += sel
	}
	if total != stats.TotalUpdates {
		t.Errorf("TotalUpdates %d != sum of SelectedPerSlot %d", stats.TotalUpdates, total)
	}
}

func TestFaultInjectionDuplicates(t *testing.T) {
	// With heavy message duplication on both ends of every link the dedup
	// layer must keep the protocol correct: same convergence, valid Nash
	// equilibrium.
	for seed := uint64(0); seed < 3; seed++ {
		in := randomInstance(seed, 8, 12)
		clean, err := RunInProcess(in, InProcessOptions{
			Platform:      PlatformConfig{Policy: Deterministic, Seed: 1},
			Deterministic: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		faulty, err := RunChaos(in, ChaosOptions{
			Platform:        PlatformConfig{Policy: Deterministic, Seed: 1},
			Deterministic:   true,
			Seed:            seed,
			AgentProfile:    FaultProfile{DupProb: 0.5},
			PlatformProfile: FaultProfile{DupProb: 0.5},
		})
		if err != nil {
			t.Fatalf("seed %d (faulty): %v", seed, err)
		}
		if !faulty.Converged {
			t.Fatalf("seed %d: faulty run did not converge", seed)
		}
		if faulty.Faults[FaultDup] == 0 {
			t.Fatalf("seed %d: no duplicate was injected", seed)
		}
		for i := range clean.Choices {
			if clean.Choices[i] != faulty.Choices[i] {
				t.Fatalf("seed %d: duplication changed outcome for user %d", seed, i)
			}
		}
	}
}

// TestAgentRestart crashes an agent mid-run and restarts it on the same
// connection; the platform must re-initialize it and the run must still
// converge to a Nash equilibrium.
func TestAgentRestart(t *testing.T) {
	in := randomInstance(4, 6, 10)
	n := in.NumUsers()
	platConns := make([]Conn, n)
	agentConns := make([]Conn, n)
	for i := 0; i < n; i++ {
		platConns[i], agentConns[i] = ChanPair(64)
	}
	plat, err := New(in, platConns, WithConfig(PlatformConfig{Policy: Deterministic}))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i != 0 {
				errs[i] = NewAgent(agentConns[i], AgentConfig{
					User: i, Alpha: in.Users[i].Alpha, Beta: in.Users[i].Beta,
					Gamma: in.Users[i].Gamma, Deterministic: true,
				}).Run()
				return
			}
			// User 0: run a "crashing" agent manually for the handshake and
			// one slot, then abandon it and start a fresh agent that
			// resumes via Hello{Resume}.
			c := WithSeq(agentConns[0], 0)
			send := func(m *wire.Message) {
				if err := c.Send(m); err != nil {
					errs[0] = err
				}
			}
			send(&wire.Message{Kind: wire.KindHello, Hello: &wire.Hello{User: 0}})
			m, err := c.Recv() // Init
			if err != nil || m.Kind != wire.KindInit {
				errs[0] = err
				return
			}
			send(&wire.Message{Kind: wire.KindDecision, Decision: &wire.Decision{Slot: 0, Route: 0}})
			if _, err := c.Recv(); err != nil { // SlotInfo for slot 1
				errs[0] = err
				return
			}
			// "Crash" before answering slot 1, then restart: fresh agent
			// state, same connection, resume handshake.
			a := &Agent{cfg: AgentConfig{
				User: 0, Alpha: in.Users[0].Alpha, Beta: in.Users[0].Beta,
				Gamma: in.Users[0].Gamma, Deterministic: true,
			}, conn: c, rnd: rng.New(0), proposed: -1}
			if err := a.hello(true); err != nil {
				errs[0] = err
				return
			}
			errs[0] = a.runLoop()
		}(i)
	}
	stats, perr := plat.Run()
	wg.Wait()
	if perr != nil {
		t.Fatal(perr)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("agent %d: %v", i, e)
		}
	}
	if !stats.Converged {
		t.Fatal("restart run did not converge")
	}
	if !profileOf(t, in, stats.Choices).IsNash() {
		t.Fatal("restart run not Nash")
	}
}

// TestPlatformRejectsOutOfRangeTask feeds the platform a request whose
// B_i names a task the instance does not have. PUU selection indexes its
// taken-task marks by task ID, so the platform must refuse the request as
// a protocol error instead of passing it on.
func TestPlatformRejectsOutOfRangeTask(t *testing.T) {
	in := randomInstance(5, 1, 4)
	for _, bad := range []int{in.NumTasks(), -1} {
		pc, ac := ChanPair(8)
		plat, err := New(in, []Conn{pc}, WithConfig(PlatformConfig{Policy: PUU}))
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			c := WithSeq(ac, 0)
			_ = c.Send(&wire.Message{Kind: wire.KindHello, Hello: &wire.Hello{User: 0}})
			if _, err := c.Recv(); err != nil { // Init
				return
			}
			_ = c.Send(&wire.Message{Kind: wire.KindDecision, Decision: &wire.Decision{Slot: 0, Route: 0}})
			if _, err := c.Recv(); err != nil { // SlotInfo for slot 1
				return
			}
			_ = c.Send(&wire.Message{Kind: wire.KindRequest, Request: &wire.Request{
				Slot: 1, HasUpdate: true, Route: 0, Tau: 1, B: []int{bad},
			}})
			// A platform that let the request through grants it; hang up
			// so the run fails instead of waiting for a decision.
			if _, err := c.Recv(); err == nil {
				ac.Close()
			}
		}()
		_, err = plat.Run()
		ac.Close()
		if err == nil || !strings.Contains(err.Error(), "outside") {
			t.Fatalf("B_i = [%d]: platform error %v, want an out-of-range task refusal", bad, err)
		}
	}
}

func TestTCPTransport(t *testing.T) {
	in := randomInstance(6, 6, 10)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type out struct {
		stats RunStats
		err   error
	}
	done := make(chan out, 1)
	go func() {
		stats, err := ServeTCP(ln, in, PlatformConfig{Policy: PUU, Seed: 9})
		done <- out{stats, err}
	}()
	var wg sync.WaitGroup
	agentErrs := make([]error, in.NumUsers())
	for i := 0; i < in.NumUsers(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			agentErrs[i] = DialTCP(ln.Addr().String(), AgentConfig{
				User: i, Alpha: in.Users[i].Alpha, Beta: in.Users[i].Beta,
				Gamma: in.Users[i].Gamma, Seed: uint64(i) + 77,
			})
		}(i)
	}
	wg.Wait()
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	for i, e := range agentErrs {
		if e != nil {
			t.Fatalf("agent %d: %v", i, e)
		}
	}
	if !res.stats.Converged {
		t.Fatal("TCP run did not converge")
	}
	if !profileOf(t, in, res.stats.Choices).IsNash() {
		t.Fatal("TCP run not Nash")
	}
}

func TestNewValidation(t *testing.T) {
	in := randomInstance(7, 4, 6)
	if _, err := New(&core.Instance{}, nil); err == nil {
		t.Error("invalid instance accepted")
	}
	if _, err := New(in, make([]Conn, 2)); err == nil {
		t.Error("wrong conn count accepted")
	}
	if _, err := New(in, make([]Conn, 4), WithConfig(PlatformConfig{Policy: "BOGUS"})); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestChanPairCloseUnblocks(t *testing.T) {
	a, b := ChanPair(0)
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		done <- err
	}()
	a.Close()
	if err := <-done; err == nil {
		t.Error("Recv on closed conn returned nil error")
	}
	if err := b.Send(&wire.Message{Kind: wire.KindGrant, Grant: &wire.Grant{}}); err != nil {
		// b's send may succeed into the buffer or fail; either is fine as
		// long as it does not block forever. Nothing to assert strictly.
		_ = err
	}
}

func TestSeqConnDedup(t *testing.T) {
	t.Run("immediate-dup", func(t *testing.T) {
		a, b := ChanPair(16)
		sa := WithSeq(a, -1)
		sb := WithSeq(b, 0)
		// Send one message, manually duplicate it at the transport level.
		m := &wire.Message{Kind: wire.KindGrant, Grant: &wire.Grant{Slot: 1}}
		if err := sa.Send(m); err != nil {
			t.Fatal(err)
		}
		dup := *m
		if err := a.Send(&dup); err != nil { // bypass seq stamping: same Seq
			t.Fatal(err)
		}
		m2 := &wire.Message{Kind: wire.KindGrant, Grant: &wire.Grant{Slot: 2}}
		if err := sa.Send(m2); err != nil {
			t.Fatal(err)
		}
		got1, err := sb.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got2, err := sb.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got1.Grant.Slot != 1 || got2.Grant.Slot != 2 {
			t.Errorf("dedup failed: got slots %d,%d", got1.Grant.Slot, got2.Grant.Slot)
		}
	})
	t.Run("old-epoch-after-new", func(t *testing.T) {
		// Raw sends with hand-set (Epoch, Seq): a restarted sender's epoch-1
		// messages interleave with a late replay of its epoch-0 traffic.
		a, b := ChanPair(16)
		sb := WithSeq(b, 0)
		sends := []struct {
			epoch uint32
			seq   uint64
			slot  int
		}{
			{0, 0, 1}, // an unstamped first message is accepted
			{0, 1, 2},
			{0, 2, 3},
			{1, 1, 4}, // new incarnation reuses low sequence numbers
			{0, 2, 5}, // replay of epoch 0's last message: dup
			{0, 1, 6}, // older epoch-0 replay: dup
			{1, 1, 7}, // immediate dup within the new epoch
			{1, 2, 8},
			{0, 0, 9}, // second Seq-0 message of epoch 0: dup
			{1, 3, 10},
		}
		for _, s := range sends {
			m := grantMsg(s.slot)
			m.Epoch, m.Seq = s.epoch, s.seq
			if err := a.Send(m); err != nil {
				t.Fatal(err)
			}
		}
		var got []int
		for len(got) == 0 || got[len(got)-1] != 10 {
			m, err := sb.Recv()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, m.Grant.Slot)
		}
		if want := []int{1, 2, 3, 4, 8, 10}; !slices.Equal(got, want) {
			t.Errorf("delivered slots %v, want %v", got, want)
		}
	})
	t.Run("concurrent-senders", func(t *testing.T) {
		// Sends racing on one seqConn must reach the wire in Seq order, or
		// the high-water mark would drop the overtaken ones.
		const senders, each = 4, 1000
		a, b := ChanPair(8)
		sa := WithSeq(a, -1)
		sb := WithSeq(b, 0)
		for g := 0; g < senders; g++ {
			go func() {
				for i := 0; i < each; i++ {
					if err := sa.Send(grantMsg(i)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		var last uint64
		for i := 0; i < senders*each; i++ {
			m, err := sb.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if m.Seq != last+1 {
				t.Fatalf("delivery %d: Seq %d after %d", i, m.Seq, last)
			}
			last = m.Seq
		}
	})
	t.Run("bounded-state", func(t *testing.T) {
		const n = 100_000
		a, b := ChanPair(64)
		sa := WithSeq(a, -1)
		sb := WithSeq(b, 0)
		go func() {
			for i := 0; i < n; i++ {
				if err := sa.Send(grantMsg(i)); err != nil {
					return
				}
			}
		}()
		for i := 0; i < n; i++ {
			m, err := sb.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if m.Grant.Slot != i {
				t.Fatalf("delivery %d: got slot %d", i, m.Grant.Slot)
			}
		}
		if got := len(sb.(*seqConn).high); got != 1 {
			t.Errorf("dedup state holds %d entries after %d messages of one epoch, want 1", got, n)
		}
	})
}

func TestMessageAccounting(t *testing.T) {
	in := randomInstance(10, 8, 12)
	stats, err := RunInProcess(in, InProcessOptions{
		Platform: PlatformConfig{Policy: SUU, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := in.NumUsers()
	// The platform sends every user one Init and one Terminate, and in
	// each slot one SlotInfo per contacted user and a Grant per winner;
	// every user is contacted in slot 1, whose requests open slot 2.
	if stats.MessagesSent < 3*n {
		t.Errorf("MessagesSent = %d, expected at least %d", stats.MessagesSent, 3*n)
	}
	// Received: Hello + initial Decision + one Request round at minimum.
	if stats.MessagesReceived < 3*n {
		t.Errorf("MessagesReceived = %d, expected at least %d", stats.MessagesReceived, 3*n)
	}
	// Per-slot traffic is linear in users: sanity upper bound.
	maxExpected := (stats.Slots + 3) * n * 3
	if stats.MessagesSent > maxExpected {
		t.Errorf("MessagesSent = %d, above linear bound %d", stats.MessagesSent, maxExpected)
	}

	// Certified silence must pay: a seeded PUU run sends strictly fewer
	// SlotInfos than one per user per decision slot, and its totals match
	// the per-slot contact counts exactly (a Request per SlotInfo).
	in = randomInstance(10, 40, 30)
	n = in.NumUsers()
	var slotInfos int
	stats, err = RunInProcess(in, InProcessOptions{
		Platform: PlatformConfig{Policy: PUU, Seed: 2, Observer: func(o Observation) {
			slotInfos += o.Contacted
		}},
		AgentSeedBase: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Slots < 2 {
		t.Fatalf("degenerate PUU run of %d slots", stats.Slots)
	}
	// The terminating slot is not observed: its SlotInfos are the
	// messages beyond Init, the observed SlotInfos, Grants and Terminate.
	last := stats.MessagesSent - 2*n - slotInfos - stats.TotalUpdates
	if last < 1 || last > n {
		t.Fatalf("sent %d: %d SlotInfos in the terminating slot", stats.MessagesSent, last)
	}
	if recv := 2*n + slotInfos + last + stats.TotalUpdates; stats.MessagesReceived != recv {
		t.Errorf("MessagesReceived = %d, want %d", stats.MessagesReceived, recv)
	}
	if total := slotInfos + last; total >= stats.Slots*n {
		t.Errorf("%d SlotInfos in %d slots of %d users: silence saved nothing", total, stats.Slots, n)
	}
}

func TestPlatformRejectsWrongHello(t *testing.T) {
	in := randomInstance(12, 2, 4)
	platConns := make([]Conn, 2)
	agentConns := make([]Conn, 2)
	for i := range platConns {
		platConns[i], agentConns[i] = ChanPair(8)
	}
	plat, err := New(in, platConns)
	if err != nil {
		t.Fatal(err)
	}
	// Conn 0 claims to be user 1: the platform must refuse.
	go func() {
		c := WithSeq(agentConns[0], 1)
		_ = c.Send(&wire.Message{Kind: wire.KindHello, Hello: &wire.Hello{User: 1}})
	}()
	if _, err := plat.Run(); err == nil {
		t.Fatal("platform accepted a misidentified hello")
	}
}

func TestServeTCPRejectsNonHello(t *testing.T) {
	in := randomInstance(13, 2, 4)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		_, err := ServeTCP(ln, in, PlatformConfig{})
		done <- err
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := NewNetConn(nc)
	if err := c.Send(grantMsg(1)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("ServeTCP accepted a non-hello first message")
	}
}

func TestServeTCPRejectsDuplicateUser(t *testing.T) {
	in := randomInstance(14, 2, 4)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		_, err := ServeTCP(ln, in, PlatformConfig{})
		done <- err
	}()
	for i := 0; i < 2; i++ {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		c := NewNetConn(nc)
		// Both connections claim user 0.
		if err := c.Send(&wire.Message{Kind: wire.KindHello, Hello: &wire.Hello{User: 0}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err == nil {
		t.Fatal("ServeTCP accepted two connections for one user")
	}
}

// TestServeTCPClosesAcceptedConnsOnError is the regression for leaked
// agent connections: when the accept phase fails (here on a duplicate
// hello), every connection accepted so far, the offending one included,
// must be closed, so the agents on them see the failure instead of
// waiting for an Init that never comes.
func TestServeTCPClosesAcceptedConnsOnError(t *testing.T) {
	in := randomInstance(14, 3, 4)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		_, err := ServeTCP(ln, in, PlatformConfig{})
		done <- err
	}()
	ncs := make([]net.Conn, 2)
	for i := range ncs {
		if ncs[i], err = net.Dial("tcp", ln.Addr().String()); err != nil {
			t.Fatal(err)
		}
		defer ncs[i].Close()
		// A valid hello from user 0, then a duplicate claim on user 0.
		if err := NewNetConn(ncs[i]).Send(&wire.Message{Kind: wire.KindHello, Hello: &wire.Hello{User: 0}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err == nil {
		t.Fatal("ServeTCP accepted two connections for one user")
	}
	for i, nc := range ncs {
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, err := NewNetConn(nc).Recv()
		var ne net.Error
		if err == nil || errors.As(err, &ne) && ne.Timeout() {
			t.Errorf("connection %d still open after ServeTCP failed: read returned %v", i, err)
		}
	}
}

// TestServeTCPSilentConnection is the regression for a stalled accept
// phase: a connection that connects and never sends, as a port scan or a
// TCP health probe does, must not keep the platform from linking its
// agents, and is closed once they are linked.
func TestServeTCPSilentConnection(t *testing.T) {
	in := randomInstance(6, 6, 10)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	silent, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	done := make(chan error, 1)
	go func() {
		stats, err := ServeTCP(ln, in, PlatformConfig{Policy: PUU, Seed: 9})
		if err == nil && !stats.Converged {
			err = errors.New("run did not converge")
		}
		done <- err
	}()
	var wg sync.WaitGroup
	agentErrs := make([]error, in.NumUsers())
	for i := 0; i < in.NumUsers(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			agentErrs[i] = DialTCP(ln.Addr().String(), AgentConfig{
				User: i, Alpha: in.Users[i].Alpha, Beta: in.Users[i].Beta,
				Gamma: in.Users[i].Gamma, Seed: uint64(i) + 77,
			})
		}(i)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeTCP still running 10s after its agents dialed")
	}
	wg.Wait()
	for i, e := range agentErrs {
		if e != nil {
			t.Fatalf("agent %d: %v", i, e)
		}
	}
	silent.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := silent.Read(make([]byte, 1)); err == nil || os.IsTimeout(err) {
		t.Errorf("silent connection still open after ServeTCP returned: read returned %v", err)
	}
}
