package distributed

import (
	"errors"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// muxLinkFactory joins two MuxTransports over an in-memory pipe and returns
// a ChaosOptions.Links factory handing out one muxed channel pair per user.
// Every logical link shares the single underlying byte stream.
func muxLinkFactory(t *testing.T, opts wire.MuxOptions) (func(int) (Conn, Conn, error), *MuxTransport, *MuxTransport) {
	t.Helper()
	p, a := net.Pipe()
	pt := NewMuxTransport(p, opts)
	at := NewMuxTransport(a, opts)
	t.Cleanup(func() { pt.Close(); at.Close() })
	links := func(user int) (Conn, Conn, error) {
		pc, err := pt.Agent(user)
		if err != nil {
			return nil, nil, err
		}
		ac, err := at.Agent(user)
		if err != nil {
			return nil, nil, err
		}
		return pc, ac, nil
	}
	return links, pt, at
}

// TestMuxChaosConverges runs the full chaos suite — transient faults,
// duplicates, retry and dedup decorators — over channels multiplexed on one
// shared stream, and demands every protocol invariant (potential ascent,
// zero Nash gap, Theorem-4 slot bound) still holds.
func TestMuxChaosConverges(t *testing.T) {
	for _, pol := range []SelectionPolicy{SUU, PUU} {
		for _, cp := range chaosProfiles {
			for seed := uint64(1); seed <= 2; seed++ {
				links, _, _ := muxLinkFactory(t, wire.MuxOptions{})
				in := randomInstance(200+seed, 8, 12)
				stats, err := RunChaos(in, ChaosOptions{
					Platform:      PlatformConfig{Policy: pol, Seed: seed},
					AgentSeedBase: 600 + seed,
					Seed:          seed,
					AgentProfile:  cp.prof,
					PlatformProfile: FaultProfile{
						SendErrProb: cp.prof.SendErrProb / 2,
						RecvErrProb: cp.prof.RecvErrProb / 2,
						DupProb:     cp.prof.DupProb / 2,
					},
					Links: links,
				})
				desc := "mux/" + string(pol) + "/" + cp.name
				if err != nil {
					t.Fatalf("%s (seed %d): %v", desc, seed, err)
				}
				assertChaosInvariants(t, in, stats, seed, desc)
			}
		}
	}
}

// TestMuxChaosCrashReconnect checks the crash/restart machinery composes
// over muxed links: FaultConn crashes fail the decorator, the agent rejoins
// as a fresh epoch over the same mux channel, and the run still converges.
func TestMuxChaosCrashReconnect(t *testing.T) {
	crash := map[int]int{1: 9, 4: 23, 7: 31}
	for seed := uint64(31); seed <= 32; seed++ {
		links, _, _ := muxLinkFactory(t, wire.MuxOptions{})
		in := randomInstance(17, 10, 14)
		stats, err := RunChaos(in, ChaosOptions{
			Platform:        PlatformConfig{Policy: SUU, Seed: seed},
			AgentSeedBase:   910 + seed,
			Seed:            seed,
			AgentProfile:    FaultProfile{SendErrProb: 0.02, RecvErrProb: 0.02},
			PlatformProfile: FaultProfile{SendErrProb: 0.01, RecvErrProb: 0.01},
			CrashAgents:     crash,
			Links:           links,
		})
		if err != nil {
			t.Fatalf("mux crash-reconnect (seed %d): %v", seed, err)
		}
		assertChaosInvariants(t, in, stats, seed, "mux-crash-reconnect")
		if stats.Restarts == 0 {
			t.Fatalf("mux crash-reconnect (seed %d): no agent restarted", seed)
		}
	}
}

// TestMuxChaosDeterministicPerSeed replays a fully loaded chaos run over
// muxed links twice: the shared-stream transport must not perturb the
// seeded fault schedules or outcomes.
func TestMuxChaosDeterministicPerSeed(t *testing.T) {
	in := randomInstance(23, 9, 12)
	run := func() ChaosStats {
		links, _, _ := muxLinkFactory(t, wire.MuxOptions{})
		stats, err := RunChaos(in, ChaosOptions{
			Platform:        PlatformConfig{Policy: SUU, Seed: 8},
			AgentSeedBase:   79,
			Seed:            2424,
			AgentProfile:    FaultProfile{SendErrProb: 0.03, RecvErrProb: 0.03, DupProb: 0.1},
			PlatformProfile: FaultProfile{SendErrProb: 0.01, DupProb: 0.05},
			CrashAgents:     map[int]int{2: 11, 5: 11},
			Links:           links,
		})
		if err != nil {
			t.Fatalf("mux determinism: %v", err)
		}
		return stats
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Choices, b.Choices) {
		t.Errorf("choices differ across replays: %v vs %v", a.Choices, b.Choices)
	}
	if a.Slots != b.Slots {
		t.Errorf("slot counts differ: %d vs %d", a.Slots, b.Slots)
	}
	if !reflect.DeepEqual(a.Faults, b.Faults) {
		t.Errorf("fault tallies differ: %v vs %v", a.Faults, b.Faults)
	}
	if !reflect.DeepEqual(a.Potentials, b.Potentials) {
		t.Error("potential traces differ")
	}
	assertChaosInvariants(t, in, a, 2424, "mux-determinism")
}

// TestMuxChaosStalledSibling is the backpressure acceptance check: a
// flooded channel on the same mux session overflows and fails alone while
// the protocol channels beside it run a full chaos suite to convergence.
func TestMuxChaosStalledSibling(t *testing.T) {
	const highWater = 32
	links, pt, at := muxLinkFactory(t, wire.MuxOptions{RecvHighWater: highWater})
	in := randomInstance(41, 8, 12)
	n := in.NumUsers()
	// A non-protocol channel floods well past the high-water mark; its
	// consumer never reads.
	floodSend, err := pt.Agent(n + 5)
	if err != nil {
		t.Fatal(err)
	}
	floodRecv, err := at.Agent(n + 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < highWater+8; i++ {
		if err := floodSend.Send(&wire.Message{Kind: wire.KindGrant, Seq: uint64(i), From: -1,
			Grant: &wire.Grant{Slot: i}}); err != nil {
			t.Fatalf("flood send %d: %v", i, err)
		}
	}
	stats, err := RunChaos(in, ChaosOptions{
		Platform:      PlatformConfig{Policy: SUU, Seed: 5},
		AgentSeedBase: 505,
		Seed:          5,
		AgentProfile:  StandardFaultProfile,
		Links:         links,
	})
	if err != nil {
		t.Fatalf("chaos beside stalled channel: %v", err)
	}
	assertChaosInvariants(t, in, stats, 5, "mux-stalled-sibling")
	// The flooded channel delivered its queue up to the high-water mark and
	// then failed alone — the converged run above proves siblings flowed.
	for i := 0; i < highWater; i++ {
		m, err := floodRecv.Recv()
		if err != nil || m.Grant.Slot != i {
			t.Fatalf("flood message %d: %+v, %v", i, m, err)
		}
	}
	if _, err := floodRecv.Recv(); !errors.Is(err, wire.ErrRecvOverflow) {
		t.Fatalf("stalled channel error = %v, want ErrRecvOverflow", err)
	}
}

// TestServeTCPTakesMuxSessions runs the full protocol over real TCP with
// agents packed onto two multiplexed connections, exercising ServeTCP and
// a several-agent DialTCP end to end.
func TestServeTCPTakesMuxSessions(t *testing.T) {
	in := randomInstance(8, 8, 12)
	n := in.NumUsers()
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
		stats, err := ServeTCP(ln, in, PlatformConfig{Policy: SUU, Seed: 3})
		done <- out{stats, err}
	}()
	// Split the agent fleet across two muxed TCP connections.
	mkCfgs := func(users []int) []AgentConfig {
		cfgs := make([]AgentConfig, len(users))
		for j, i := range users {
			cfgs[j] = AgentConfig{
				User: i, Alpha: in.Users[i].Alpha, Beta: in.Users[i].Beta,
				Gamma: in.Users[i].Gamma, Seed: uint64(i) + 88,
			}
		}
		return cfgs
	}
	var first, second []int
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			first = append(first, i)
		} else {
			second = append(second, i)
		}
	}
	var wg sync.WaitGroup
	dialErrs := make([]error, 2)
	for s, users := range [][]int{first, second} {
		wg.Add(1)
		go func(s int, users []int) {
			defer wg.Done()
			dialErrs[s] = DialTCP(ln.Addr().String(), mkCfgs(users)...)
		}(s, users)
	}
	wg.Wait()
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	for s, e := range dialErrs {
		if e != nil {
			t.Fatalf("session %d: %v", s, e)
		}
	}
	if !res.stats.Converged {
		t.Fatal("muxed TCP run did not converge")
	}
	if !profileOf(t, in, res.stats.Choices).IsNash() {
		t.Fatal("muxed TCP run not Nash")
	}
}

// TestServeTCPRejectsUnknownMuxUser checks the platform kills a session
// that opens a channel outside the instance's user range.
func TestServeTCPRejectsUnknownMuxUser(t *testing.T) {
	in := randomInstance(9, 4, 6)
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
	// Two agents, so they share one mux session.
	err = DialTCP(ln.Addr().String(),
		AgentConfig{User: 99, Alpha: 0.5, Beta: 0.5, Gamma: 0.5},
		AgentConfig{User: 0, Alpha: 0.5, Beta: 0.5, Gamma: 0.5})
	if serr := <-done; serr == nil {
		t.Fatal("ServeTCP accepted a mux link for an unknown user")
	}
	_ = err // the agent side fails too once the platform tears down
}

// TestServeTCPSessionClosesEarly is the regression for a hang: a mux
// session that closes before every user's link is open must end ServeTCP
// with an error, not leave it waiting for links forever.
func TestServeTCPSessionClosesEarly(t *testing.T) {
	in := randomInstance(9, 4, 6)
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
	tr := NewMuxTransport(nc, wire.MuxOptions{})
	c, err := tr.Agent(0)
	if err != nil {
		t.Fatal(err)
	}
	// Open user 0's link only, then end the session.
	if err := c.Send(&wire.Message{Kind: wire.KindHello, Hello: &wire.Hello{User: 0}}); err != nil {
		t.Fatal(err)
	}
	tr.Drain()
	tr.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("ServeTCP reported success with 1 of 4 users linked")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeTCP still waiting for links 5s after its only session closed")
	}
}

// TestServeTCPMixedFleet serves plain agents and two mux sessions on one
// listener: the DET run must match the in-process platform's slots and
// choices.
func TestServeTCPMixedFleet(t *testing.T) {
	in := randomInstance(8, 10, 12)
	want, err := RunInProcess(in, InProcessOptions{
		Platform:      PlatformConfig{Policy: Deterministic, Seed: 3},
		AgentSeedBase: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
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
		stats, err := ServeTCP(ln, in, PlatformConfig{Policy: Deterministic, Seed: 3})
		done <- out{stats, err}
	}()
	// Users 0–3 dial one connection each; 4, 6, 8 and 5, 7, 9 each share
	// a mux session.
	fleets := [][]int{{0}, {1}, {2}, {3}, {4, 6, 8}, {5, 7, 9}}
	var wg sync.WaitGroup
	dialErrs := make([]error, len(fleets))
	for i, users := range fleets {
		cfgs := make([]AgentConfig, len(users))
		for j, u := range users {
			cfgs[j] = AgentConfig{
				User: u, Alpha: in.Users[u].Alpha, Beta: in.Users[u].Beta,
				Gamma: in.Users[u].Gamma, Seed: 40 + uint64(u),
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			dialErrs[i] = DialTCP(ln.Addr().String(), cfgs...)
		}()
	}
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	wg.Wait()
	for i, e := range dialErrs {
		if e != nil {
			t.Fatalf("agents %v: %v", fleets[i], e)
		}
	}
	if res.stats.Slots != want.Slots || !slices.Equal(res.stats.Choices, want.Choices) {
		t.Errorf("mixed TCP fleet: %d slots, choices %v; in-process: %d slots, choices %v",
			res.stats.Slots, res.stats.Choices, want.Slots, want.Choices)
	}
}
