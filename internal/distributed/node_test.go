package distributed

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distributed/federation"
	"repro/internal/rng"
)

// nodeTestInstance is the shared scenario for the multi-node tests: small
// enough for fast TCP rounds, rich enough for real contention.
func nodeTestInstance() *core.Instance {
	return core.RandomInstance(core.DefaultRandomConfig(10, 14), rng.New(3))
}

// runNodeFederation runs a K-node federation over real localhost TCP —
// every shard a ServeNode goroutine with its own agent and peer listeners,
// every agent a goroutine dialing its owning shard — and returns the
// per-node transcripts and stats.
func runNodeFederation(t *testing.T, in *core.Instance, K int, policy SelectionPolicy) ([]*bytes.Buffer, []NodeStats) {
	return runNodeFleet(t, in, K, policy, nodeFleet{})
}

// nodeFleet says how runNodeFleet's agents reach their shards.
type nodeFleet struct {
	// muxed dials each shard's agents as one mux session instead of one
	// connection per agent.
	muxed bool
	// silent first opens a connection to every shard that never sends,
	// and checks the shard closes it once its agents are linked.
	silent bool
}

// runNodeFleet is runNodeFederation with the agents dialing as fleet
// says. The nodes must finish within 30 s.
func runNodeFleet(t *testing.T, in *core.Instance, K int, policy SelectionPolicy, fleet nodeFleet) ([]*bytes.Buffer, []NodeStats) {
	t.Helper()
	part, err := federation.Spatial(in, K)
	if err != nil {
		t.Fatal(err)
	}
	agentLns := make([]net.Listener, K)
	peerLns := make([]net.Listener, K)
	peerAddrs := make([]string, K)
	for k := 0; k < K; k++ {
		if agentLns[k], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		if peerLns[k], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		peerAddrs[k] = peerLns[k].Addr().String()
	}
	var silent []net.Conn
	if fleet.silent {
		for _, ln := range agentLns {
			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			silent = append(silent, nc)
		}
	}
	transcripts := make([]*bytes.Buffer, K)
	stats := make([]NodeStats, K)
	errs := make([]error, K)
	var nodes sync.WaitGroup
	for k := 0; k < K; k++ {
		transcripts[k] = &bytes.Buffer{}
		nodes.Add(1)
		go func(k int) {
			defer nodes.Done()
			stats[k], errs[k] = ServeNode(agentLns[k], peerLns[k], in, NodeOptions{
				Shard: k, Shards: K, PeerAddrs: peerAddrs,
				Platform:    PlatformConfig{Policy: policy, Seed: 1},
				PeerTimeout: 20 * time.Second,
				Transcript:  transcripts[k],
			})
		}(k)
	}
	// Each fleet dials its shard with one DialTCP call: one agent per
	// fleet, or every owned user in one mux session.
	var fleets [][]int
	for u := 0; u < in.NumUsers(); u++ {
		fleets = append(fleets, []int{u})
	}
	if fleet.muxed {
		fleets = part.Owned
		for k, owned := range fleets {
			if len(owned) < 2 {
				t.Fatalf("shard %d owns %d users, too few for a mux session", k, len(owned))
			}
		}
	}
	var agents sync.WaitGroup
	agentErrs := make([]error, len(fleets))
	for i, users := range fleets {
		cfgs := make([]AgentConfig, len(users))
		for j, u := range users {
			cfgs[j] = AgentConfig{
				User:  u,
				Alpha: in.Users[u].Alpha, Beta: in.Users[u].Beta, Gamma: in.Users[u].Gamma,
				Seed: 1 + uint64(u),
			}
		}
		agents.Add(1)
		go func() {
			defer agents.Done()
			agentErrs[i] = DialTCP(agentLns[part.Assign[users[0]]].Addr().String(), cfgs...)
		}()
	}
	finished := make(chan struct{})
	go func() {
		nodes.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("nodes still running 30s after their agents dialed")
	}
	for k, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", k, err)
		}
	}
	agents.Wait()
	for i, err := range agentErrs {
		if err != nil {
			t.Fatalf("agents %v: %v", fleets[i], err)
		}
	}
	for k, nc := range silent {
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := nc.Read(make([]byte, 1)); err == nil || os.IsTimeout(err) {
			t.Errorf("node %d left its silent connection open: read returned %v", k, err)
		}
	}
	return transcripts, stats
}

// inProcessTranscript renders a standalone platform's observations in
// the node transcript format: init lines from the slot-0 choices, then
// one line per granted update.
func inProcessTranscript(buf *bytes.Buffer) func(Observation) {
	return func(o Observation) {
		if o.Slot == 0 {
			for u, r := range o.Choices {
				fmt.Fprintf(buf, "init user %d route %d\n", u, r)
			}
			return
		}
		for _, u := range o.GrantedUsers {
			fmt.Fprintf(buf, "slot %d user %d route %d\n", o.Slot, u, o.Choices[u])
		}
	}
}

// TestNodeFederationMatchesInProcess is the multi-node determinism
// regression: for each policy and shard count, the TCP federation's
// per-slot selection transcript must be byte-identical on every node and
// to the in-process federation's, and — where the selection cannot depend
// on how requests are split across shards — to the standalone platform's.
// DET picks the lowest requesting user and PUU a disjoint batch that
// differs only on δ ties; SUU's seeded draw indexes the merged request
// order, which only K=1 shares with the standalone platform.
func TestNodeFederationMatchesInProcess(t *testing.T) {
	in := nodeTestInstance()
	shardCounts := []int{1, 2, 4}
	if testing.Short() {
		shardCounts = []int{2}
	}
	for _, policy := range []SelectionPolicy{Deterministic, PUU, SUU} {
		for _, K := range shardCounts {
			t.Run(fmt.Sprintf("%s/K=%d", policy, K), func(t *testing.T) {
				t.Parallel()
				fed, err := RunInProcess(in, InProcessOptions{
					Shards:        K,
					Platform:      PlatformConfig{Policy: policy, Seed: 1},
					AgentSeedBase: 1,
				})
				if err != nil {
					t.Fatalf("in-process federation: %v", err)
				}
				if policy != SUU || K == 1 {
					var want bytes.Buffer
					alone := runStandalone(t, in, PlatformConfig{Policy: policy, Seed: 1, Observer: inProcessTranscript(&want)}, 1, false)
					if fed.Transcript != want.String() {
						t.Errorf("in-process federation diverges from the standalone platform:\n got:\n%s\nwant:\n%s", fed.Transcript, want.String())
					}
					// One shard serves every user, so its per-slot statistics
					// are the standalone platform's too.
					if K == 1 {
						if fed.Slots != alone.Slots || fed.TotalUpdates != alone.TotalUpdates ||
							!slices.Equal(fed.RequestsPerSlot, alone.RequestsPerSlot) ||
							!slices.Equal(fed.SelectedPerSlot, alone.SelectedPerSlot) ||
							!slices.Equal(fed.Choices, alone.Choices) {
							t.Errorf("K=1 federation stats diverge from the standalone platform:\n got: slots %d updates %d requests %v selected %v choices %v\nwant: slots %d updates %d requests %v selected %v choices %v",
								fed.Slots, fed.TotalUpdates, fed.RequestsPerSlot, fed.SelectedPerSlot, fed.Choices,
								alone.Slots, alone.TotalUpdates, alone.RequestsPerSlot, alone.SelectedPerSlot, alone.Choices)
						}
					}
				}

				transcripts, stats := runNodeFederation(t, in, K, policy)
				texts := make([]string, K)
				for k, tr := range transcripts {
					if !stats[k].Converged {
						t.Fatalf("node %d did not converge", k)
					}
					texts[k] = tr.String()
				}
				part, err := federation.Spatial(in, K)
				if err != nil {
					t.Fatal(err)
				}
				got, err := globalTranscript(part, texts)
				if err != nil {
					t.Fatal(err)
				}
				if got != fed.Transcript {
					t.Errorf("TCP federation diverges from the in-process federation:\n got:\n%s\nwant:\n%s", got, fed.Transcript)
				}
			})
		}
	}
}

// TestNodeFederationChoices checks the merged final choices of a
// multi-node run form the exact Nash equilibrium a standalone run reaches
// under DET, and that every node reports only its owned users.
func TestNodeFederationChoices(t *testing.T) {
	in := nodeTestInstance()
	K := 2
	part, err := federation.Spatial(in, K)
	if err != nil {
		t.Fatal(err)
	}
	_, stats := runNodeFederation(t, in, K, Deterministic)
	merged := make([]int, in.NumUsers())
	for u := range merged {
		merged[u] = -1
	}
	for k, st := range stats {
		for u, c := range st.Choices {
			if part.Assign[u] == k {
				if c < 0 {
					t.Fatalf("node %d left owned user %d unset", k, u)
				}
				merged[u] = c
			} else if c != -1 {
				t.Fatalf("node %d claims peer user %d (route %d)", k, u, c)
			}
		}
	}
	prof, err := core.NewProfile(in, merged)
	if err != nil {
		t.Fatal(err)
	}
	if !prof.IsNash() {
		t.Error("merged multi-node choices are not a Nash equilibrium")
	}
	want := runStandalone(t, in, PlatformConfig{Policy: Deterministic, Seed: 1}, 1, false)
	for u := range merged {
		if merged[u] != want.Choices[u] {
			t.Errorf("user %d: multi-node route %d, standalone route %d", u, merged[u], want.Choices[u])
		}
	}
}

// TestNodeStatsCounters is the regression test for ServeNode's traffic
// counters: they are filled by defers, which must write the returned
// stats rather than a struct the return statement has already copied.
func TestNodeStatsCounters(t *testing.T) {
	_, stats := runNodeFederation(t, nodeTestInstance(), 2, PUU)
	for k, st := range stats {
		if !st.Converged {
			t.Fatalf("node %d did not converge", k)
		}
		if st.MessagesSent == 0 || st.MessagesReceived == 0 {
			t.Errorf("node %d reports %d messages sent, %d received after a converged run",
				k, st.MessagesSent, st.MessagesReceived)
		}
	}
}

// TestFrontDoorRouting runs a 2-node federation behind the front door:
// every agent dials the single front-door address, the router places it on
// its owning shard, and the protocol still converges end to end.
func TestFrontDoorRouting(t *testing.T) {
	in := nodeTestInstance()
	K := 2
	part, err := federation.Spatial(in, K)
	if err != nil {
		t.Fatal(err)
	}
	agentLns := make([]net.Listener, K)
	peerLns := make([]net.Listener, K)
	shardAddrs := make([]string, K)
	peerAddrs := make([]string, K)
	for k := 0; k < K; k++ {
		if agentLns[k], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		if peerLns[k], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		shardAddrs[k] = agentLns[k].Addr().String()
		peerAddrs[k] = peerLns[k].Addr().String()
	}
	fdLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	routed := make(map[int]int)
	fdDone := make(chan error, 1)
	go func() {
		fdDone <- ServeFrontDoor(fdLn, in, FrontDoorOptions{
			ShardAddrs: shardAddrs,
			OnRoute: func(user, shard int) {
				mu.Lock()
				routed[user] = shard
				mu.Unlock()
			},
			Logf: t.Logf,
		})
	}()
	stats := make([]NodeStats, K)
	errs := make([]error, K)
	var nodes sync.WaitGroup
	for k := 0; k < K; k++ {
		nodes.Add(1)
		go func(k int) {
			defer nodes.Done()
			stats[k], errs[k] = ServeNode(agentLns[k], peerLns[k], in, NodeOptions{
				Shard: k, Shards: K, PeerAddrs: peerAddrs,
				Platform:    PlatformConfig{Policy: PUU, Seed: 1},
				PeerTimeout: 20 * time.Second,
			})
		}(k)
	}
	var agents sync.WaitGroup
	agentErrs := make([]error, in.NumUsers())
	for u := 0; u < in.NumUsers(); u++ {
		agents.Add(1)
		go func(u int) {
			defer agents.Done()
			agentErrs[u] = DialTCP(fdLn.Addr().String(), AgentConfig{
				User:  u,
				Alpha: in.Users[u].Alpha, Beta: in.Users[u].Beta, Gamma: in.Users[u].Gamma,
				Seed: 1 + uint64(u),
			})
		}(u)
	}
	nodes.Wait()
	agents.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", k, err)
		}
		if !stats[k].Converged {
			t.Fatalf("node %d did not converge", k)
		}
	}
	for u, err := range agentErrs {
		if err != nil {
			t.Fatalf("agent %d: %v", u, err)
		}
	}
	fdLn.Close()
	if err := <-fdDone; err != nil {
		t.Fatalf("front door: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(routed) != in.NumUsers() {
		t.Fatalf("front door routed %d connections, want %d", len(routed), in.NumUsers())
	}
	for u, k := range routed {
		if part.Assign[u] != k {
			t.Errorf("user %d routed to shard %d, partition owns it to %d", u, k, part.Assign[u])
		}
	}
}

// TestServeNodeValidation covers the option errors that must surface
// before any network activity.
func TestServeNodeValidation(t *testing.T) {
	in := nodeTestInstance()
	mk := func() (net.Listener, net.Listener) {
		a, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		p, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return a, p
	}
	cases := []struct {
		name string
		opts NodeOptions
		want string
	}{
		{"resume with SUU", NodeOptions{Shard: 0, Shards: 2, PeerAddrs: []string{"a", "b"}, Resume: true, Platform: PlatformConfig{Policy: SUU}}, "incompatible with SUU"},
		{"resume single shard", NodeOptions{Shard: 0, Shards: 1, PeerAddrs: []string{"a"}, Resume: true, Platform: PlatformConfig{Policy: PUU}}, "needs a peer"},
		{"bad shard index", NodeOptions{Shard: 3, Shards: 2, PeerAddrs: []string{"a", "b"}}, "out of range"},
		{"addr count mismatch", NodeOptions{Shard: 0, Shards: 2, PeerAddrs: []string{"a"}}, "peer addresses"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, p := mk()
			_, err := ServeNode(a, p, in, tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want containing %q", err, tc.want)
			}
		})
	}
}

// TestServeNodeNilPeerListener checks a node without a peer listener: one
// shard serves every user and converges to a Nash equilibrium it reports
// in full, and a shard of a larger federation refuses to start.
func TestServeNodeNilPeerListener(t *testing.T) {
	in := nodeTestInstance()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var agents sync.WaitGroup
	agentErrs := make([]error, in.NumUsers())
	for u := range agentErrs {
		agents.Add(1)
		go func() {
			defer agents.Done()
			agentErrs[u] = DialTCP(ln.Addr().String(), AgentConfig{
				User:  u,
				Alpha: in.Users[u].Alpha, Beta: in.Users[u].Beta, Gamma: in.Users[u].Gamma,
				Seed: 1 + uint64(u),
			})
		}()
	}
	stats, err := ServeNode(ln, nil, in, NodeOptions{Shards: 1, Platform: PlatformConfig{Policy: PUU, Seed: 1}})
	agents.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for u, e := range agentErrs {
		if e != nil {
			t.Fatalf("agent %d: %v", u, e)
		}
	}
	if !stats.Converged || !profileOf(t, in, stats.Choices).IsNash() {
		t.Fatalf("one-shard node without a peer listener: converged %v, choices %v", stats.Converged, stats.Choices)
	}

	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, err = ServeNode(ln, nil, in, NodeOptions{Shard: 0, Shards: 2, PeerAddrs: []string{"a", "b"}})
	if err == nil || !strings.Contains(err.Error(), "peer listener") {
		t.Fatalf("shard 0 of 2 without a peer listener: error %v, want a missing-listener refusal", err)
	}
}

// TestServeNodeLeavesHandedInConnsOpen is the conn-ownership regression:
// serveNode must not close connections its caller handed in. Closing them
// on return races the agents' reads of the final Terminate, which a
// closed channel pair can lose.
func TestServeNodeLeavesHandedInConnsOpen(t *testing.T) {
	in := nodeTestInstance()
	n := in.NumUsers()
	platConns := make([]Conn, n)
	var agents sync.WaitGroup
	agentErrs := make([]error, n)
	for u := 0; u < n; u++ {
		pc, ac := ChanPair(16)
		platConns[u] = pc
		agents.Add(1)
		go func(u int) {
			defer agents.Done()
			agentErrs[u] = NewAgent(ac, AgentConfig{
				User:  u,
				Alpha: in.Users[u].Alpha, Beta: in.Users[u].Beta, Gamma: in.Users[u].Gamma,
				Seed: 1 + uint64(u),
			}).Run()
		}(u)
	}
	peerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := serveNode(peerLn, in, NodeOptions{
		Shard: 0, Shards: 1, PeerAddrs: []string{peerLn.Addr().String()},
		Platform: PlatformConfig{Policy: PUU, Seed: 1},
	}, func(federation.Partition) ([]Conn, error) { return platConns, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatal("node did not converge")
	}
	for u, c := range platConns {
		select {
		case <-c.(*chanConn).done:
			t.Errorf("user %d: serveNode closed a connection it was handed", u)
		default:
		}
	}
	agents.Wait()
	for u, err := range agentErrs {
		if err != nil {
			t.Errorf("agent %d: %v", u, err)
		}
	}
}

// TestServeNodeSilentConnection is the regression for a stalled accept
// phase: a connection that never sends must not keep a shard from linking
// its agents, and the shard closes it once they are linked.
func TestServeNodeSilentConnection(t *testing.T) {
	_, nodeStats := runNodeFleet(t, nodeTestInstance(), 2, Deterministic, nodeFleet{silent: true})
	for _, st := range nodeStats {
		if !st.Converged {
			t.Fatalf("node %d did not converge", st.Shard)
		}
	}
}

// TestServeNodeMuxedFleets runs a K=2 federation whose agents reach each
// shard as one mux session: its global transcript must equal the
// in-process federation's.
func TestServeNodeMuxedFleets(t *testing.T) {
	in := nodeTestInstance()
	const K = 2
	fed, err := RunInProcess(in, InProcessOptions{
		Shards:        K,
		Platform:      PlatformConfig{Policy: PUU, Seed: 1},
		AgentSeedBase: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	transcripts, nodeStats := runNodeFleet(t, in, K, PUU, nodeFleet{muxed: true})
	texts := make([]string, K)
	for k, tr := range transcripts {
		if !nodeStats[k].Converged {
			t.Fatalf("node %d did not converge", k)
		}
		texts[k] = tr.String()
	}
	part, err := federation.Spatial(in, K)
	if err != nil {
		t.Fatal(err)
	}
	got, err := globalTranscript(part, texts)
	if err != nil {
		t.Fatal(err)
	}
	if got != fed.Transcript {
		t.Errorf("muxed TCP federation diverges from the in-process federation:\n got:\n%s\nwant:\n%s", got, fed.Transcript)
	}
}
