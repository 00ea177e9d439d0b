package distributed

import (
	"bytes"
	"fmt"
	"net"
	"sort"
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
	var agents sync.WaitGroup
	agentErrs := make([]error, in.NumUsers())
	for u := 0; u < in.NumUsers(); u++ {
		agents.Add(1)
		go func(u int) {
			defer agents.Done()
			agentErrs[u] = DialTCP(agentLns[part.Assign[u]].Addr().String(), AgentConfig{
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
	}
	for u, err := range agentErrs {
		if err != nil {
			t.Fatalf("agent %d: %v", u, err)
		}
	}
	return transcripts, stats
}

// inProcessTranscript reproduces the node transcript format from an
// in-process run's observations: init lines from the slot-0 choices, then
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

// splitTranscript separates init lines from slot lines.
func splitTranscript(s string) (init []string, slots string) {
	var slotLines []string
	for _, line := range strings.Split(strings.TrimSuffix(s, "\n"), "\n") {
		if strings.HasPrefix(line, "init ") {
			init = append(init, line)
		} else if line != "" {
			slotLines = append(slotLines, line)
		}
	}
	return init, strings.Join(slotLines, "\n")
}

// TestNodeFederationMatchesInProcess is the multi-node determinism
// regression: for each policy and shard count, the TCP federation's
// per-slot selection transcript must be byte-identical on every node AND
// byte-identical to the in-process federation (and, through the existing
// federated equivalence suite, to a standalone platform).
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
				var want bytes.Buffer
				fopts := FederatedOptions{
					Shards:   K,
					Platform: PlatformConfig{Policy: policy, Seed: 1, Observer: inProcessTranscript(&want)},
				}
				if _, err := RunFederatedInProcess(in, fopts, InProcessOptions{AgentSeedBase: 1}); err != nil {
					t.Fatalf("in-process federation: %v", err)
				}
				wantInit, wantSlots := splitTranscript(want.String())

				transcripts, stats := runNodeFederation(t, in, K, policy)
				var gotInit []string
				for k, tr := range transcripts {
					if !stats[k].Converged {
						t.Fatalf("node %d did not converge", k)
					}
					init, slots := splitTranscript(tr.String())
					gotInit = append(gotInit, init...)
					if slots != wantSlots {
						t.Errorf("node %d slot transcript diverges from in-process run:\n got:\n%s\nwant:\n%s", k, slots, wantSlots)
					}
				}
				sort.Slice(gotInit, func(i, j int) bool {
					var a, b int
					fmt.Sscanf(gotInit[i], "init user %d", &a)
					fmt.Sscanf(gotInit[j], "init user %d", &b)
					return a < b
				})
				if got := strings.Join(gotInit, "\n"); got != strings.Join(wantInit, "\n") {
					t.Errorf("merged init lines diverge:\n got:\n%s\nwant:\n%s", got, strings.Join(wantInit, "\n"))
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
	want, err := RunInProcess(in, InProcessOptions{Platform: PlatformConfig{Policy: Deterministic, Seed: 1}, AgentSeedBase: 1})
	if err != nil {
		t.Fatal(err)
	}
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
