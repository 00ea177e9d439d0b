package distributed

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/distributed/federation"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// TestFederatedConvergesToNash runs the federation at several shard counts
// and policies; every run must converge to a Nash equilibrium of the full
// game — the shard layout must never change what equilibrium means.
func TestFederatedConvergesToNash(t *testing.T) {
	in := randomInstance(11, 24, 10)
	for _, policy := range []SelectionPolicy{SUU, PUU, Deterministic} {
		for _, shards := range []int{1, 2, 4} {
			stats, err := RunInProcess(in, InProcessOptions{
				Shards:        shards,
				Platform:      PlatformConfig{Policy: policy, Seed: 7},
				AgentSeedBase: 100,
				Deterministic: true,
			})
			if err != nil {
				t.Fatalf("%s K=%d: %v", policy, shards, err)
			}
			if !stats.Converged {
				t.Fatalf("%s K=%d: did not converge", policy, shards)
			}
			p := profileOf(t, in, stats.Choices)
			if !p.IsNash() {
				t.Fatalf("%s K=%d: final profile is not Nash (gap %v)", policy, shards, p.NashGap())
			}
			if len(stats.Nodes) != shards {
				t.Fatalf("%s K=%d: stats report %d shards", policy, shards, len(stats.Nodes))
			}
		}
	}
}

// runStandalone runs New(in, conns, WithConfig(cfg)).Run() over one
// in-process agent per user, agent u seeded agentSeedBase+u: the direct
// Platform.Run path, the reference the node path (RunInProcess, ServeTCP)
// is checked against.
func runStandalone(t *testing.T, in *core.Instance, cfg PlatformConfig, agentSeedBase uint64, deterministic bool) RunStats {
	t.Helper()
	n := in.NumUsers()
	platConns := make([]Conn, n)
	agentErrs := make([]error, n)
	var agents sync.WaitGroup
	for u := 0; u < n; u++ {
		pc, ac := ChanPair(16)
		platConns[u] = pc
		a := NewAgent(ac, AgentConfig{
			User:  u,
			Alpha: in.Users[u].Alpha, Beta: in.Users[u].Beta, Gamma: in.Users[u].Gamma,
			Seed: agentSeedBase + uint64(u), Deterministic: deterministic,
		})
		agents.Add(1)
		go func() {
			defer agents.Done()
			agentErrs[u] = a.Run()
		}()
	}
	plat, err := New(in, platConns, WithConfig(cfg))
	var stats RunStats
	if err == nil {
		stats, err = plat.Run()
	}
	if err != nil {
		for _, c := range platConns {
			c.Close()
		}
		agents.Wait()
		t.Fatalf("standalone platform: %v", err)
	}
	agents.Wait()
	for u, e := range agentErrs {
		if e != nil {
			t.Fatalf("standalone agent %d: %v", u, e)
		}
	}
	return stats
}

// observationLog appends every Observation but its wall time to stream.
func observationLog(stream *[]string) func(Observation) {
	return func(o Observation) {
		*stream = append(*stream, fmt.Sprintf("slot %d requests %d granted %d %v choices %v phi %v %v",
			o.Slot, o.Requests, o.Granted, o.GrantedUsers, o.Choices, o.Potential, o.PotentialValid))
	}
}

// TestStandaloneMatchesNodePath proves by equality that a standalone
// Platform.Run and the one-shard node path of RunInProcess are one
// algorithm: for DET, PUU and seeded SUU their Observation streams and
// run statistics, traffic included, must be identical.
func TestStandaloneMatchesNodePath(t *testing.T) {
	in := randomInstance(61, 16, 9)
	for _, policy := range []SelectionPolicy{Deterministic, PUU, SUU} {
		t.Run(string(policy), func(t *testing.T) {
			cfg := func(stream *[]string) PlatformConfig {
				return PlatformConfig{Policy: policy, Seed: 13, Observer: observationLog(stream),
					ObservePotential: true, Telemetry: telemetry.NewRegistry()}
			}
			var want, got []string
			alone := runStandalone(t, in, cfg(&want), 3, false)
			node, err := RunInProcess(in, InProcessOptions{Platform: cfg(&got), AgentSeedBase: 3})
			if err != nil {
				t.Fatal(err)
			}
			if alone.Slots < 2 {
				t.Fatalf("standalone run took %d slots; the check needs contention", alone.Slots)
			}
			if !slices.Equal(got, want) {
				t.Errorf("observation streams diverge:\n got: %q\nwant: %q", got, want)
			}
			if node.Slots != alone.Slots || node.Converged != alone.Converged || node.TotalUpdates != alone.TotalUpdates ||
				!slices.Equal(node.RequestsPerSlot, alone.RequestsPerSlot) ||
				!slices.Equal(node.SelectedPerSlot, alone.SelectedPerSlot) ||
				!slices.Equal(node.Choices, alone.Choices) ||
				node.MessagesSent != alone.MessagesSent || node.MessagesReceived != alone.MessagesReceived {
				t.Errorf("run statistics diverge:\n got: %+v\nwant: %+v", node.RunStats, alone)
			}
		})
	}
}

// TestFederatedMatchesStandalone checks the federation is not a different
// algorithm: with the deterministic policy (and deterministic agents) the
// final profile must be identical to the single-platform run at every
// shard count, and with SUU the shared selection seed must make K=1
// federated reproduce the standalone run exactly.
func TestFederatedMatchesStandalone(t *testing.T) {
	in := randomInstance(3, 20, 8)
	ref := runStandalone(t, in, PlatformConfig{Policy: Deterministic}, 55, true)
	for _, shards := range []int{1, 2, 3, 4} {
		stats, err := RunInProcess(in, InProcessOptions{
			Shards:        shards,
			Platform:      PlatformConfig{Policy: Deterministic},
			AgentSeedBase: 55,
			Deterministic: true,
		})
		if err != nil {
			t.Fatalf("K=%d: %v", shards, err)
		}
		for u := range ref.Choices {
			if stats.Choices[u] != ref.Choices[u] {
				t.Fatalf("K=%d: user %d chose route %d, standalone chose %d", shards, u, stats.Choices[u], ref.Choices[u])
			}
		}
		if stats.Slots != ref.Slots || stats.TotalUpdates != ref.TotalUpdates {
			t.Fatalf("K=%d: %d slots / %d updates, standalone %d / %d", shards, stats.Slots, stats.TotalUpdates, ref.Slots, ref.TotalUpdates)
		}
	}

	refSUU := runStandalone(t, in, PlatformConfig{Policy: SUU, Seed: 99}, 55, true)
	fedSUU, err := RunInProcess(in, InProcessOptions{
		Shards:        1,
		Platform:      PlatformConfig{Policy: SUU, Seed: 99},
		AgentSeedBase: 55,
		Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for u := range refSUU.Choices {
		if fedSUU.Choices[u] != refSUU.Choices[u] {
			t.Fatalf("SUU K=1: user %d diverged from standalone (same seed)", u)
		}
	}
}

// TestFederatedGossipExchange checks the replication bookkeeping: every
// round crosses the full mesh (K*(K-1) batches per barrier) and the
// barrier drains all peers (max lag 0 at quiescence).
func TestFederatedGossipExchange(t *testing.T) {
	in := randomInstance(17, 16, 6)
	var mu sync.Mutex
	var shardObs []ShardObservation
	stats, err := RunInProcess(in, InProcessOptions{
		Shards:   4,
		Platform: PlatformConfig{Policy: PUU, Seed: 1},
		ShardObserver: func(o ShardObservation) {
			mu.Lock()
			shardObs = append(shardObs, o)
			mu.Unlock()
		},
		AgentSeedBase: 9,
		Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Barriers: one after init plus one per committed slot; each takes
	// one batch from each of a shard's 3 peers.
	wantBatches := (stats.Slots + 1) * 3
	for _, ns := range stats.Nodes {
		if ns.GossipBatches != wantBatches {
			t.Errorf("shard %d ingested %d gossip batches, want %d (%d slots)", ns.Shard, ns.GossipBatches, wantBatches, stats.Slots)
		}
	}
	if len(shardObs) != stats.Slots*4 {
		t.Errorf("%d shard observations, want %d", len(shardObs), stats.Slots*4)
	}
	for _, o := range shardObs {
		for p, lag := range o.PeerLag {
			if lag != 0 {
				t.Errorf("shard %d slot %d: peer %d lag %d after barrier", o.Shard, o.Slot, p, lag)
			}
		}
	}
}

// TestFederatedObserverPotentialAscent replays the global transcript of
// a federated run and checks the paper's run invariants carry over: the
// potential ascends across every slot (Theorem 2), the slot count stays
// under the Theorem-4 bound at the observed minimum ascent, and the run
// ends on the shards' final routes with a zero Nash gap.
func TestFederatedObserverPotentialAscent(t *testing.T) {
	in := randomInstance(23, 18, 7)
	stats, err := RunInProcess(in, InProcessOptions{
		Shards:        3,
		Platform:      PlatformConfig{Policy: PUU, Seed: 3},
		AgentSeedBase: 4,
		Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatal("did not converge")
	}
	choices, pots, err := ReplayTranscript(in, stats.Transcript)
	if err != nil {
		t.Fatal(err)
	}
	if len(pots) != stats.Slots+1 || len(pots) < 2 {
		t.Fatalf("%d potentials for %d slots", len(pots), stats.Slots)
	}
	dPhiMin := math.Inf(1)
	for i := 1; i < len(pots); i++ {
		d := pots[i] - pots[i-1]
		if d <= 0 {
			t.Fatalf("potential did not ascend in slot %d: %v -> %v", i, pots[i-1], pots[i])
		}
		dPhiMin = math.Min(dPhiMin, d)
	}
	eMin, _ := in.WeightBounds()
	if bound := metrics.ConvergenceBound(in, dPhiMin*eMin); float64(stats.Slots) >= bound {
		t.Errorf("%d slots >= Theorem-4 bound %v", stats.Slots, bound)
	}
	if !slices.Equal(choices, stats.Choices) {
		t.Fatalf("replayed choices %v, shards ended on %v", choices, stats.Choices)
	}
	if gap := profileOf(t, in, choices).NashGap(); gap > core.Eps {
		t.Fatalf("final Nash gap %g", gap)
	}
}

// TestFederatedExplicitPartition runs with an index partition and checks
// per-shard stats line up with ownership.
func TestFederatedExplicitPartition(t *testing.T) {
	in := randomInstance(29, 12, 5)
	part, err := federation.ByIndex(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	var topo federation.Partition
	stats, err := RunInProcess(in, InProcessOptions{
		Shards:        3,
		Platform:      PlatformConfig{Policy: SUU, Seed: 2},
		Partition:     part,
		OnTopology:    func(p federation.Partition) { topo = p },
		AgentSeedBase: 6,
		Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if topo.Shards != 3 {
		t.Fatalf("OnTopology saw %d shards", topo.Shards)
	}
	total := 0
	for _, ns := range stats.Nodes {
		total += ns.TotalUpdates
	}
	if total != stats.TotalUpdates {
		t.Errorf("per-shard updates sum to %d, global says %d", total, stats.TotalUpdates)
	}
	if !profileOf(t, in, stats.Choices).IsNash() {
		t.Fatal("not Nash")
	}
}

// TestFederatedOptionValidation covers the construction errors.
func TestFederatedOptionValidation(t *testing.T) {
	in := randomInstance(31, 6, 4)
	bad, _ := federation.ByIndex(6, 2)
	cases := []struct {
		name string
		opts InProcessOptions
	}{
		{"partition/shard count mismatch", InProcessOptions{Shards: 3, Partition: bad}},
		{"unknown policy", InProcessOptions{Shards: 2, Platform: PlatformConfig{Policy: "bogus"}}},
		{"global observer", InProcessOptions{Shards: 2, Platform: PlatformConfig{Observer: func(Observation) {}}}},
	}
	for _, tc := range cases {
		if _, err := RunInProcess(in, tc.opts); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestFederatedNoConvergenceSentinel bounds a run to one slot and checks
// the sentinel error surfaces (benchmarks depend on it).
func TestFederatedNoConvergenceSentinel(t *testing.T) {
	in := randomInstance(37, 20, 8)
	_, err := RunInProcess(in, InProcessOptions{
		Shards:        2,
		Platform:      PlatformConfig{Policy: SUU, MaxSlots: 1, Seed: 5},
		AgentSeedBase: 8,
		Deterministic: true,
	})
	if err == nil {
		t.Skip("instance converged in one slot; sentinel not exercised")
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("error %v does not wrap ErrNoConvergence", err)
	}
}

// TestTranscriptRejectsMalformed checks the replay and the merge refuse
// records they cannot vouch for instead of replaying a wrong trajectory.
func TestTranscriptRejectsMalformed(t *testing.T) {
	in := randomInstance(53, 2, 4)
	init := "init user 0 route 0\ninit user 1 route 0\n"
	for name, tr := range map[string]string{
		"missing init":      "init user 0 route 0\n",
		"unknown user":      init + "slot 1 user 2 route 0\n",
		"unknown route":     init + "slot 1 user 1 route 99\n",
		"slot gap":          init + "slot 2 user 1 route 1\n",
		"init after slots":  init + "slot 1 user 1 route 1\ninit user 0 route 1\n",
		"unparsable line":   init + "slot one user 1 route 1\n",
		"slot numbered 0":   init + "slot 0 user 1 route 1\n",
		"slots out of step": init + "slot 1 user 1 route 1\nslot 3 user 0 route 1\n",
	} {
		if _, _, err := ReplayTranscript(in, tr); err == nil {
			t.Errorf("%s: replay accepted %q", name, tr)
		}
	}
	for tr, want := range map[string]int{init: 1, init + "slot 1 user 1 route 1\nslot 2 user 0 route 1\n": 3} {
		if _, pots, err := ReplayTranscript(in, tr); err != nil || len(pots) != want {
			t.Errorf("replay of %q: %d potentials, want %d (err %v)", tr, len(pots), want, err)
		}
	}

	part, _ := federation.ByIndex(2, 2)
	shard0 := "init user 0 route 0\nslot 1 user 1 route 1\n"
	if got, err := globalTranscript(part, []string{shard0, "init user 1 route 0\nslot 1 user 1 route 1\n"}); err != nil || got != init+"slot 1 user 1 route 1\n" {
		t.Errorf("merge = %q, %v", got, err)
	}
	if _, err := globalTranscript(part, []string{shard0, "init user 1 route 0\nslot 1 user 1 route 0\n"}); err == nil {
		t.Error("merge accepted diverging slot sections")
	}
	if _, err := globalTranscript(part, []string{shard0, "slot 1 user 1 route 1\n"}); err == nil {
		t.Error("merge accepted a shard missing its init line")
	}
}

// TestFederatedSelectionHistogram checks every shard times its winner
// selection: each shard's distributed_selection_seconds{shard="k"} records
// one observation per decision slot that ran a selection.
func TestFederatedSelectionHistogram(t *testing.T) {
	in := randomInstance(17, 16, 6)
	reg := telemetry.NewRegistry()
	stats, err := RunInProcess(in, InProcessOptions{
		Shards:        2,
		Platform:      PlatformConfig{Policy: PUU, Seed: 1, Telemetry: reg},
		AgentSeedBase: 9,
		Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Slots == 0 {
		t.Fatal("run selected nothing; the check needs at least one slot")
	}
	snap := reg.Snapshot()
	for _, ns := range stats.Nodes {
		name := fmt.Sprintf(`distributed_selection_seconds{shard="%d"}`, ns.Shard)
		if got := snap.Histograms[name].Count; got != uint64(ns.Slots) {
			t.Errorf("%s has %d observations, want %d (one per slot)", name, got, ns.Slots)
		}
	}
}

// TestFederatedOneShardObserves checks a one-shard federation behaves like
// a standalone platform toward its monitors: its DET Observer stream
// equals the in-process platform's, and no metric name in its registry
// carries a shard label.
func TestFederatedOneShardObserves(t *testing.T) {
	in := randomInstance(19, 12, 8)
	var want, got []string
	runStandalone(t, in, PlatformConfig{Policy: Deterministic, Observer: observationLog(&want), ObservePotential: true, Telemetry: telemetry.NewRegistry()}, 5, false)
	reg := telemetry.NewRegistry()
	if _, err := RunInProcess(in, InProcessOptions{
		Shards:        1,
		Platform:      PlatformConfig{Policy: Deterministic, Observer: observationLog(&got), ObservePotential: true, Telemetry: reg},
		AgentSeedBase: 5,
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) < 2 {
		t.Fatalf("standalone run observed %d slots; the check needs a decision slot", len(want))
	}
	if !slices.Equal(got, want) {
		t.Errorf("one-shard observer stream diverges:\n got: %q\nwant: %q", got, want)
	}
	snap := reg.Snapshot()
	if len(snap.Counters) == 0 {
		t.Fatal("one-shard federation registered no counters")
	}
	for name := range snap.Counters {
		if strings.Contains(name, "shard=") {
			t.Errorf("one-shard metric %s carries a shard label", name)
		}
	}
	for name := range snap.Histograms {
		if strings.Contains(name, "shard=") {
			t.Errorf("one-shard metric %s carries a shard label", name)
		}
	}
}
